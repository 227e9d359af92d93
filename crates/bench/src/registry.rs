//! Build any lock in the workspace by kind, with its memory.
//!
//! One table, `KINDS`, lists every kind once: its CLI name, its
//! [`LockKind`] value, its flags and its layout function. Every other
//! per-kind fact — the [`NAMES`](LockKind::NAMES) list, parsing,
//! labels, re-branching, [`build_lock`] — is read off that table, and
//! [`AnyLock`] is the one lock type every registry caller drives.

use sal_baselines::{LeeLock, McsLock, ScottLock, TasLock, TicketLock, TournamentLock};
use sal_core::long_lived::{BoundedLongLivedLock, JjLock, SimpleLongLivedLock};
use sal_core::one_shot::{DsmOneShotLock, OneShotLock};
use sal_core::tree::Ascent;
use sal_core::{LockCore, LockMeta, Outcome};
use sal_memory::{AbortSignal, CcMemory, Mem, MemoryBuilder, Pid, WordId};
use sal_obs::Probe;

/// Every lock the experiments can drive. `b` is the tree branching
/// factor (the paper's `W`) where applicable.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LockKind {
    /// The paper's one-shot lock (Figure 1) with the adaptive ascent.
    OneShot {
        /// Tree branching factor.
        b: usize,
    },
    /// The one-shot lock with the non-adaptive ascent of Algorithm 4.1.
    OneShotPlain {
        /// Tree branching factor.
        b: usize,
    },
    /// The DSM variant of the one-shot lock (§3).
    OneShotDsm {
        /// Tree branching factor.
        b: usize,
    },
    /// Figure-5 transformation over never-reused pools.
    LongLivedSimple {
        /// Tree branching factor.
        b: usize,
    },
    /// The final algorithm: §6.2 bounded-space long-lived lock.
    LongLived {
        /// Tree branching factor.
        b: usize,
    },
    /// MCS queue lock (classic, not abortable).
    Mcs,
    /// Ticket lock (classic, not abortable).
    Ticket,
    /// Test-and-test-and-set (abortable, unbounded RMR).
    Tas,
    /// Abortable Peterson tournament — the `O(log N)` Jayanti-row shape.
    Tournament,
    /// Scott-style abortable CLH queue lock.
    Scott,
    /// Lee-style F&A+SWAP abortable array lock.
    Lee,
    /// Jayanti–Jayanti-style constant-amortized-RMR abortable queue
    /// lock (abandon-on-abort + promotion walk).
    JjAmortized,
}

/// [`Row::flags`] bit: the kind honours abort signals.
const ABORTABLE: u8 = 1;
/// [`Row::flags`] bit: each process may enter at most once.
const ONE_SHOT: u8 = 2;
/// [`Row::flags`] bit: the kind is a row of the Table-1 comparison.
const TABLE1: u8 = 4;

/// One registry entry: everything the workspace knows about a kind.
struct Row {
    /// CLI name; the label appends `(B=b)` for the tree-based kinds.
    name: &'static str,
    /// The kind at branching factor `b` (non-tree kinds ignore `b`).
    kind: fn(usize) -> LockKind,
    /// Bit set of [`ABORTABLE`], [`ONE_SHOT`] and [`TABLE1`].
    flags: u8,
    /// Lay the lock out: `(builder, n, b, attempts)`. The
    /// `long-lived-simple`, `scott` and `lee` layouts hold one slot per
    /// enter attempt; the others ignore `attempts`.
    layout: fn(&mut MemoryBuilder, usize, usize, usize) -> AnyLock,
}

/// Every kind, in CLI-listing order.
#[rustfmt::skip]
const KINDS: &[Row] = &[
    Row { name: "one-shot", kind: |b| LockKind::OneShot { b }, flags: ABORTABLE | ONE_SHOT | TABLE1,
          layout: |m, n, b, _| AnyLock::OneShot(OneShotLock::layout(m, n, b)) },
    Row { name: "one-shot-plain", kind: |b| LockKind::OneShotPlain { b }, flags: ABORTABLE | ONE_SHOT,
          layout: |m, n, b, _| AnyLock::OneShotPlain(OneShotLock::layout_with(m, n, b, Ascent::Plain)) },
    Row { name: "one-shot-dsm", kind: |b| LockKind::OneShotDsm { b }, flags: ABORTABLE | ONE_SHOT,
          layout: |m, n, b, _| AnyLock::OneShotDsm(DsmOneShotLock::layout(m, n, b)) },
    Row { name: "long-lived", kind: |b| LockKind::LongLived { b }, flags: ABORTABLE | TABLE1,
          layout: |m, n, b, _| AnyLock::LongLived(BoundedLongLivedLock::layout(m, n, b)) },
    Row { name: "long-lived-simple", kind: |b| LockKind::LongLivedSimple { b }, flags: ABORTABLE,
          layout: |m, n, b, a| AnyLock::LongLivedSimple(SimpleLongLivedLock::layout(m, n, b, a + 1)) },
    Row { name: "mcs", kind: |_| LockKind::Mcs, flags: 0,
          layout: |m, n, _, _| AnyLock::Mcs(McsLock::layout(m, n)) },
    Row { name: "ticket", kind: |_| LockKind::Ticket, flags: 0,
          layout: |m, _, _, _| AnyLock::Ticket(TicketLock::layout(m)) },
    Row { name: "tas", kind: |_| LockKind::Tas, flags: ABORTABLE,
          layout: |m, _, _, _| AnyLock::Tas(TasLock::layout(m)) },
    Row { name: "tournament", kind: |_| LockKind::Tournament, flags: ABORTABLE | TABLE1,
          layout: |m, n, _, _| AnyLock::Tournament(TournamentLock::layout(m, n)) },
    Row { name: "scott", kind: |_| LockKind::Scott, flags: ABORTABLE | TABLE1,
          layout: |m, n, _, a| AnyLock::Scott(ScottLock::layout(m, n, a + 1)) },
    Row { name: "lee", kind: |_| LockKind::Lee, flags: ABORTABLE | TABLE1,
          layout: |m, n, _, a| AnyLock::Lee(LeeLock::layout(m, n, a + 1)) },
    Row { name: "jj-amortized", kind: |_| LockKind::JjAmortized, flags: ABORTABLE | TABLE1,
          layout: |m, n, _, _| AnyLock::JjAmortized(JjLock::layout(m, n)) },
];

impl LockKind {
    /// The CLI names [`parse`](LockKind::parse) accepts, one per kind.
    pub const NAMES: &'static [&'static str] = &{
        let mut names = [""; KINDS.len()];
        let mut i = 0;
        while i < names.len() {
            names[i] = KINDS[i].name;
            i += 1;
        }
        names
    };

    /// This kind's [`KINDS`] entry.
    fn row(self) -> &'static Row {
        let b = self.branching().unwrap_or(0);
        KINDS
            .iter()
            .find(|row| (row.kind)(b) == self)
            .expect("every kind has a KINDS row")
    }

    fn has(self, flag: u8) -> bool {
        self.row().flags & flag != 0
    }

    /// The tree branching factor of the tree-based kinds.
    fn branching(self) -> Option<usize> {
        match self {
            LockKind::OneShot { b }
            | LockKind::OneShotPlain { b }
            | LockKind::OneShotDsm { b }
            | LockKind::LongLivedSimple { b }
            | LockKind::LongLived { b } => Some(b),
            _ => None,
        }
    }

    /// Short label for tables.
    pub fn label(self) -> String {
        let name = self.row().name;
        match self.branching() {
            Some(b) => format!("{name}(B={b})"),
            None => name.into(),
        }
    }

    /// Whether the kind honours abort signals.
    pub fn abortable(self) -> bool {
        self.has(ABORTABLE)
    }

    /// Whether each process may enter at most once.
    pub fn one_shot(self) -> bool {
        self.has(ONE_SHOT)
    }

    /// Parse a CLI lock name (`one-shot`, `long-lived`, `mcs`, …) at
    /// branching factor `b` for the tree-based kinds.
    ///
    /// # Errors
    ///
    /// When the name matches no known lock kind; the message lists the
    /// valid names.
    pub fn parse(name: &str, b: usize) -> Result<LockKind, String> {
        KINDS
            .iter()
            .find(|row| row.name == name)
            .map(|row| (row.kind)(b))
            .ok_or_else(|| {
                format!(
                    "unknown lock {name}; valid kinds: {}",
                    LockKind::NAMES.join(", ")
                )
            })
    }

    /// Re-target the tree branching factor of the tree-based kinds
    /// (no-op for the others). Lets [`FromStr`](std::str::FromStr)
    /// parsing — which has no way to receive `b` — compose with a CLI
    /// `--b` flag: `name.parse::<LockKind>()?.with_branching(b)`.
    pub fn with_branching(self, b: usize) -> LockKind {
        (self.row().kind)(b)
    }

    /// Every registered kind, in [`NAMES`](Self::NAMES) order, at
    /// branching factor `b` for the tree-based kinds — the single
    /// registry-driven source for "run this over everything" loops
    /// (`table1`'s amortized column, `figures`, conformance grids).
    pub fn all(b: usize) -> Vec<LockKind> {
        KINDS.iter().map(|row| (row.kind)(b)).collect()
    }

    /// Whether the kind is a row of the Table-1 comparison: the
    /// abortable contenders, minus the ablation/model variants
    /// (`one-shot-plain`, `one-shot-dsm`, the unbounded-pool
    /// `long-lived-simple`) and the unbounded-RMR `tas` strawman.
    pub fn in_table1(self) -> bool {
        self.has(TABLE1)
    }

    /// The abortable contenders of Table 1 (rows of the comparison), at
    /// a given branching factor for our algorithms — derived from
    /// [`NAMES`](Self::NAMES) via [`in_table1`](Self::in_table1), never
    /// hand-listed.
    pub fn table1_rows(b: usize) -> Vec<LockKind> {
        Self::all(b).into_iter().filter(|k| k.in_table1()).collect()
    }
}

/// The single CLI parse path shared by `sweep` and `explore`:
/// delegates to [`LockKind::parse`] at the paper's default branching
/// factor (`W = 16`); apply a CLI-supplied factor afterwards with
/// [`LockKind::with_branching`]. The error lists [`LockKind::NAMES`].
impl std::str::FromStr for LockKind {
    type Err = String;

    fn from_str(name: &str) -> Result<LockKind, String> {
        LockKind::parse(name, 16)
    }
}

/// Any lock in the workspace, one variant per [`LockKind`]: the lock
/// type of every registry caller.
///
/// The set of kinds is closed, so dispatch is a `match` rather than a
/// trait object; [`LockMeta`] and [`LockCore`] forward to the inner
/// lock for every memory and probe type, which keeps the registry path
/// statically dispatched end to end.
#[derive(Debug)]
pub enum AnyLock {
    /// [`LockKind::OneShot`].
    OneShot(OneShotLock),
    /// [`LockKind::OneShotPlain`].
    OneShotPlain(OneShotLock),
    /// [`LockKind::OneShotDsm`].
    OneShotDsm(DsmOneShotLock),
    /// [`LockKind::LongLivedSimple`].
    LongLivedSimple(SimpleLongLivedLock),
    /// [`LockKind::LongLived`].
    LongLived(BoundedLongLivedLock),
    /// [`LockKind::Mcs`].
    Mcs(McsLock),
    /// [`LockKind::Ticket`].
    Ticket(TicketLock),
    /// [`LockKind::Tas`].
    Tas(TasLock),
    /// [`LockKind::Tournament`].
    Tournament(TournamentLock),
    /// [`LockKind::Scott`].
    Scott(ScottLock),
    /// [`LockKind::Lee`].
    Lee(LeeLock),
    /// [`LockKind::JjAmortized`].
    JjAmortized(JjLock),
}

/// Evaluate `$body` with `$l` bound to the lock inside `$any`.
macro_rules! dispatch {
    ($any:expr, $l:ident => $body:expr) => {
        match $any {
            AnyLock::OneShot($l) | AnyLock::OneShotPlain($l) => $body,
            AnyLock::OneShotDsm($l) => $body,
            AnyLock::LongLivedSimple($l) => $body,
            AnyLock::LongLived($l) => $body,
            AnyLock::Mcs($l) => $body,
            AnyLock::Ticket($l) => $body,
            AnyLock::Tas($l) => $body,
            AnyLock::Tournament($l) => $body,
            AnyLock::Scott($l) => $body,
            AnyLock::Lee($l) => $body,
            AnyLock::JjAmortized($l) => $body,
        }
    };
}

impl AnyLock {
    /// Lay `kind` out for `n` processes in a caller-supplied builder,
    /// budgeting for `attempts` total enter attempts (the kinds whose
    /// layout holds one slot per attempt need it). The caller picks the
    /// memory model: [`build_lock`] builds CC memory, the real-thread
    /// tests raw atomics and the A3b ablation DSM memory.
    pub fn layout(kind: LockKind, mem: &mut MemoryBuilder, n: usize, attempts: usize) -> AnyLock {
        (kind.row().layout)(mem, n, kind.branching().unwrap_or(0), attempts)
    }
}

impl LockMeta for AnyLock {
    fn name(&self) -> String {
        dispatch!(self, l => LockMeta::name(l))
    }

    fn is_abortable(&self) -> bool {
        dispatch!(self, l => LockMeta::is_abortable(l))
    }

    fn is_one_shot(&self) -> bool {
        dispatch!(self, l => LockMeta::is_one_shot(l))
    }
}

impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for AnyLock {
    #[inline]
    fn enter_core<S: AbortSignal + ?Sized>(
        &self,
        mem: &M,
        p: Pid,
        signal: &S,
        probe: &P,
    ) -> Outcome {
        dispatch!(self, l => LockCore::<M, P>::enter_core(l, mem, p, signal, probe))
    }

    #[inline]
    fn exit_core(&self, mem: &M, p: Pid, probe: &P) {
        dispatch!(self, l => LockCore::<M, P>::exit_core(l, mem, p, probe))
    }
}

/// A built lock plus the memory and scratch word the harness needs.
pub struct BuiltLock {
    /// The lock.
    pub lock: Box<AnyLock>,
    /// CC memory holding the lock's words.
    pub mem: CcMemory,
    /// Scratch word the CS body hammers.
    pub cs_word: WordId,
    /// Shared words the lock's layout occupies (Table-1 space column).
    pub words: usize,
}

impl std::fmt::Debug for BuiltLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltLock")
            .field("words", &self.words)
            .finish()
    }
}

/// Build `kind` for `n` processes over CC memory, budgeting for
/// `attempts` total enter attempts (see [`AnyLock::layout`]).
pub fn build_lock(kind: LockKind, n: usize, attempts: usize) -> BuiltLock {
    let mut b = MemoryBuilder::new();
    let lock = Box::new(AnyLock::layout(kind, &mut b, n, attempts));
    let words = b.words_allocated();
    let cs_word = b.alloc(0);
    BuiltLock {
        lock,
        mem: b.build_cc(n),
        cs_word,
        words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_memory::NeverAbort;
    use sal_obs::NoProbe;

    #[test]
    fn every_kind_builds_and_takes_a_passage() {
        // Registry-driven: every NAMES entry must build and run, and
        // the table's flags must agree with the built lock's metadata.
        for kind in LockKind::all(4) {
            let built = build_lock(kind, 4, 16);
            let outcome = built.lock.enter_core(&built.mem, 0, &NeverAbort, &NoProbe);
            assert!(outcome.entered(), "{kind:?}");
            built.lock.exit_core(&built.mem, 0, &NoProbe);
            assert!(built.words > 0);
            assert!(!kind.label().is_empty());
            assert_eq!(kind.abortable(), built.lock.is_abortable(), "{kind:?}");
            assert_eq!(kind.one_shot(), built.lock.is_one_shot(), "{kind:?}");
        }
    }

    #[test]
    fn metadata_matches_kind() {
        assert!(!LockKind::Mcs.abortable());
        assert!(!LockKind::Ticket.abortable());
        assert!(LockKind::Scott.abortable());
        assert!(LockKind::JjAmortized.abortable());
        assert!(!LockKind::JjAmortized.one_shot());
        assert!(LockKind::OneShot { b: 2 }.one_shot());
        assert!(!LockKind::LongLived { b: 2 }.one_shot());
        assert_eq!(LockKind::all(8).len(), LockKind::NAMES.len());
        // Table-1 rows are registry-driven: the abortable contenders,
        // in NAMES order, with the ablation variants and tas opted out.
        let rows = LockKind::table1_rows(8);
        assert_eq!(
            rows,
            vec![
                LockKind::OneShot { b: 8 },
                LockKind::LongLived { b: 8 },
                LockKind::Tournament,
                LockKind::Scott,
                LockKind::Lee,
                LockKind::JjAmortized,
            ]
        );
        assert!(rows.iter().all(|k| k.abortable() && k.in_table1()));
    }

    #[test]
    fn parse_covers_every_kind() {
        for (name, want) in [
            ("one-shot", LockKind::OneShot { b: 8 }),
            ("one-shot-plain", LockKind::OneShotPlain { b: 8 }),
            ("one-shot-dsm", LockKind::OneShotDsm { b: 8 }),
            ("long-lived", LockKind::LongLived { b: 8 }),
            ("long-lived-simple", LockKind::LongLivedSimple { b: 8 }),
            ("mcs", LockKind::Mcs),
            ("ticket", LockKind::Ticket),
            ("tas", LockKind::Tas),
            ("tournament", LockKind::Tournament),
            ("scott", LockKind::Scott),
            ("lee", LockKind::Lee),
            ("jj-amortized", LockKind::JjAmortized),
        ] {
            assert_eq!(LockKind::parse(name, 8).unwrap(), want);
        }
        assert!(LockKind::parse("bogus", 8).is_err());
    }

    #[test]
    fn fromstr_shares_the_parse_path_and_rebranches() {
        let kind: LockKind = "long-lived".parse().unwrap();
        assert_eq!(kind, LockKind::LongLived { b: 16 });
        assert_eq!(kind.with_branching(4), LockKind::LongLived { b: 4 });
        // Non-tree kinds ignore the branching factor.
        let mcs: LockKind = "mcs".parse().unwrap();
        assert_eq!(mcs.with_branching(4), LockKind::Mcs);
        // Every NAMES entry round-trips through FromStr, and the error
        // is the same NAMES-listing message parse produces.
        for name in LockKind::NAMES {
            assert!(name.parse::<LockKind>().is_ok(), "{name}");
        }
        assert_eq!(
            "bogus".parse::<LockKind>().unwrap_err(),
            LockKind::parse("bogus", 16).unwrap_err()
        );
    }

    #[test]
    fn parse_error_lists_every_valid_kind() {
        let err = LockKind::parse("bogus", 8).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        for name in LockKind::NAMES {
            assert!(err.contains(name), "error should list {name:?}: {err}");
        }
        // NAMES and parse agree: every listed name parses.
        for name in LockKind::NAMES {
            assert!(LockKind::parse(name, 8).is_ok(), "{name}");
        }
    }
}
