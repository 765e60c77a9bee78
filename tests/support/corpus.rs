//! The corpora the suites share.  The `.force` half — what the
//! expansion-identity, front-end fuzz, lock-path and allocation tests
//! run — holds every sed-pass keyword at least once, in programs that
//! also run; the native half ([`Native`]) is what the schedule sweeps of
//! `tests/schedule_fuzz.rs` run under the virtual backend.

use the_force::prelude::*;

/// The benchmark's `ksum` cold-source template with fixed identifiers:
/// a selfscheduled loop around a critical-section reduction.
pub const KSUM: &str = "\
      Force QUABA of NP ident ME
      Shared INTEGER QSCDA
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, 37
      Critical QLEFA
      QSCDA = QSCDA + K * 41
      End critical
100   End selfsched DO
      Join
";

/// The other four cold-source template shapes of `benchmark/src/gen.rs`.
const FILL: &str = "\
      Force QUGHB of NP ident ME
      Shared INTEGER QSIJB(23)
      Private INTEGER I
      End declarations
      Presched DO 100 I = 1, 23
      QSIJB(I) = I * 17 + 403
100   End presched DO
      Join
";

const RING: &str = "\
      Force QUKLC of NP ident ME
      Shared INTEGER QSMNC(5)
      Async INTEGER QCOPC(4)
      Private INTEGER R, V
      End declarations
      IF (ME .EQ. 0) THEN
      DO 10 R = 1, 5
      Produce QCOPC(1) = R * 29
      Consume QCOPC(NP) into V
      QSMNC(R) = V - (NP - 1) * 611
10    CONTINUE
      ELSE
      DO 20 R = 1, 5
      Consume QCOPC(ME) into V
      Produce QCOPC(ME + 1) = V + 611
20    CONTINUE
      END IF
      Join
";

const SECT: &str = "\
      Force QUQRD of NP ident ME
      Shared INTEGER QSSTD, QTUVD
      Private INTEGER K, T
      End declarations
      Selfsched Pcase
      Usect
      T = 0
      DO 10 K = 1, 19
      T = T + K * 53
10    CONTINUE
      QSSTD = T
      Csect (77 .GT. 0)
      QTUVD = 77
      Csect (77 .LT. 0)
      QTUVD = -1
      End pcase
      Join
";

const GRID: &str = "\
      Force QUWXE of NP ident ME
      Shared INTEGER QSYAE(6,3), QNBCE
      Private INTEGER I, J
      End declarations
      Selfsched DO2 100 I = 1, 6 ; J = 1, 3
      QSYAE(I, J) = I * 71 + J
      Critical QLDEE
      QNBCE = QNBCE + 1
      End critical
100   End selfsched DO2
      Join
";

/// `Forcesub` with and without arguments, `Externf`, a `Barrier` with a
/// section, a named `End critical`, and lower-case keywords.
const SUBS: &str = "\
      Force FMAIN of NP ident ME
      Shared REAL X(16), SUMX
      Shared INTEGER FLAG
      Externf FILLX
      Externf NOARGS
      Private INTEGER K
      Private REAL T
      End declarations
      CALL FILLX(X, 16)
      CALL NOARGS
      barrier
      FLAG = 1
      SUMX = 0.0
      end barrier
      Presched DO 10 K = 1, 16
      T = X(K)
      Critical SLCK
      SUMX = SUMX + T
      End critical SLCK
10    End presched DO
      Join
      Forcesub FILLX(A, N) of NP ident ME
      REAL A(16)
      INTEGER N
      Private INTEGER J
      End declarations
      Presched DO 20 J = 1, N
      A(J) = FLOAT(J) * 0.5
20    End presched DO
      Join
      Forcesub NOARGS of NP ident ME
      End declarations
      Barrier
      End barrier
      Join
";

/// Every `Selfsched DO` flavour (`CHUNK n`, `CHUNK var`, `GUIDED`,
/// one-trip) and `Presched DO` with expression bounds and strides.
const SCHED: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER HITS(40), N, NC
      Private INTEGER K
      End declarations
      Barrier
      N = 40
      NC = 3
      End barrier
      Selfsched DO 100 K = 1, N CHUNK 4
      HITS(K) = HITS(K) + 1
100   End selfsched DO
      Selfsched DO 200 K = N, 1, -1 chunk NC
      HITS(K) = HITS(K) + 10
200   End selfsched DO
      Selfsched DO 300 K = 1, N GUIDED
      HITS(K) = HITS(K) + 100
300   End selfsched DO
      Selfsched DO 400 K = 2, MIN(N, 40), 2
      HITS(K) = HITS(K) + 1000
400   End selfsched DO
      Presched DO 500 K = N - 1, 1, -2
      HITS(K) = HITS(K) + 1000
500   End presched DO
      Join
";

/// Both doubly nested DOALLs, separated by the barrier the language
/// requires between them.
const DO2: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER GRID(4,5)
      Private INTEGER I, J
      End declarations
      Selfsched DO2 100 I = 1, 4 ; J = 1, 5
      GRID(I, J) = I * 10 + J
100   End selfsched DO2
      Barrier
      End barrier
      Presched DO2 200 I = 4, 1, -1 ; J = 1, 5, 2
      GRID(I, J) = GRID(I, J) + 1000
200   End presched DO2
      Join
";

/// All three `Pcase` spellings, `Usect`, and `Csect` conditions.
const PCASE: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER A, B, C, D, N
      End declarations
      Barrier
      N = 3
      End barrier
      Pcase
      Usect
      A = 1
      Csect (N .GT. 2)
      B = 2
      Csect (N .GT. 5 .AND. A .EQ. 1)
      B = -2
      End pcase
      Presched Pcase
      Usect
      C = 3
      End pcase
      Selfsched Pcase
      Csect (MOD(N, 2) .EQ. 1)
      D = 4
      Usect
      A = A + 10
      End pcase
      Join
";

/// `Produce`/`Consume`/`Copy`/`Void`/`Isfull` on a scalar asynchronous
/// variable.
const ASYNC_SCALAR: &str = "\
      Force FMAIN of NP ident ME
      Async INTEGER CHAN
      Async REAL RCH
      Shared INTEGER GOT, SEEN, WASFUL
      Private INTEGER T
      Private REAL U
      End declarations
      IF (ME .EQ. 0) THEN
      Produce CHAN = 6 * 7
      Copy CHAN into T
      SEEN = T
      IF (Isfull(CHAN)) WASFUL = 1
      Consume CHAN into T
      GOT = T
      Produce RCH = 1.5
      Void RCH
      IF (.NOT. ISFULL(RCH)) WASFUL = WASFUL + 1
      END IF
      Join
";

/// The same operations on elements of an asynchronous array.
const ASYNC_ARRAY: &str = "\
      Force FMAIN of NP ident ME
      Async INTEGER CELL(6)
      Shared INTEGER OUT(6), NFULL
      Private INTEGER I, V
      End declarations
      Presched DO 10 I = 1, 6
      Produce CELL(I) = I * I
10    End presched DO
      Presched DO 20 I = 1, 6
      IF (isfull(CELL(I))) THEN
      Critical CNT
      NFULL = NFULL + 1
      End critical
      END IF
      Copy CELL(I) into V
      OUT(I) = V
20    End presched DO
      Presched DO 30 I = 1, 6
      Consume CELL(7 - I) into V
      Void CELL(7 - I)
30    End presched DO
      Join
";

/// Every corpus program, by name.
pub fn corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        ("sum", include_str!("../../examples/force_src/sum.force")),
        (
            "dotprod",
            include_str!("../../examples/force_src/dotprod.force"),
        ),
        (
            "pipeline",
            include_str!("../../examples/force_src/pipeline.force"),
        ),
        ("ksum", KSUM),
        ("fill", FILL),
        ("ring", RING),
        ("sect", SECT),
        ("grid", GRID),
        ("subs", SUBS),
        ("sched", SCHED),
        ("do2", DO2),
        ("pcase", PCASE),
        ("async_scalar", ASYNC_SCALAR),
        ("async_array", ASYNC_ARRAY),
    ]
}

/// The native corpus: self-terminating force bodies over the constructs
/// whose interleavings caused every documented hazard.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Native {
    /// Barrier rounds with a named critical between them.
    Barrier,
    /// Askfor chains: each handler posts its predecessor.
    Askfor,
    /// One recursively split item: peers must steal to share the tree.
    Steal,
    /// A ring pipeline over per-pid full/empty channels: each process
    /// produces into its own channel and consumes from its left
    /// neighbor's, so consumes genuinely block and force the schedules
    /// to interleave.  (An uncontended token ring would never block —
    /// decision points only occur at blocking waits — and on the
    /// Cray-2 the 80k-cycle creation stagger would then serialize the
    /// whole run into its single possible schedule.)
    FullEmpty,
}

impl Native {
    pub fn all() -> [Native; 4] {
        [
            Native::Barrier,
            Native::Askfor,
            Native::Steal,
            Native::FullEmpty,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            Native::Barrier => "barrier",
            Native::Askfor => "askfor",
            Native::Steal => "steal",
            Native::FullEmpty => "fullempty",
        }
    }

    /// What the body shares, built before the run so that every pid sees
    /// the same: the ring's channels.
    pub fn channels(self, force: &Force) -> Option<AsyncArray<u64>> {
        (self == Native::FullEmpty).then(|| AsyncArray::new(force.machine(), force.nproc()))
    }

    /// One process's part of the program.
    pub fn body(self, p: &Player, chans: Option<&AsyncArray<u64>>) {
        match self {
            Native::Barrier => {
                for _ in 0..3 {
                    p.critical("FUZZ", || {});
                    p.barrier();
                }
            }
            Native::Askfor => p.askfor(
                || (1..=4u32).collect(),
                |w, pot| {
                    if w > 1 {
                        pot.post(w - 1);
                    }
                },
            ),
            Native::Steal => p.askfor(
                || vec![16u32],
                |w, pot| {
                    if w > 1 {
                        pot.post(w / 2);
                        pot.post(w - w / 2);
                    }
                },
            ),
            Native::FullEmpty => {
                let chans = chans.expect("channels built before the run");
                let me = p.pid();
                let left = (me + p.nproc() - 1) % p.nproc();
                for i in 0..8u64 {
                    chans.produce(me, i);
                    let _ = chans.consume(left);
                }
            }
        }
    }
}
