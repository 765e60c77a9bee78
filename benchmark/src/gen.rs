//! Deterministic input generators: the hot corpus, the null program, the
//! five cold templates and the Poisson arrival schedule.
//!
//! Everything here is a pure function of a seed.  Expected outputs are
//! computed by this file's own arithmetic (`n(n+1)/2` and friends), never
//! captured from a run, and every program is written so that its result
//! does not depend on the number of force processes.

use std::sync::Arc;

use the_force::fortran::{RunOutput, Value};
use the_force::machdep::{MachineId, XorShift64};

/// One expected shared variable: the first `values.len()` words of `var`.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    pub var: String,
    pub values: Vec<Value>,
}

/// A `.force` source with its analytically known result.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: &'static str,
    pub source: Arc<str>,
    pub expect: Arc<[Expect]>,
}

impl Program {
    fn new(name: &'static str, source: String, expect: Vec<Expect>) -> Program {
        Program {
            name,
            source: source.into(),
            expect: expect.into(),
        }
    }

    /// Whether a run produced exactly the expected shared values.
    pub fn check(&self, out: &RunOutput) -> bool {
        self.expect.iter().all(|e| {
            out.shared_values.get(&e.var).is_some_and(|got| {
                got.len() >= e.values.len() && got[..e.values.len()] == e.values[..]
            })
        })
    }
}

fn ints(var: &str, values: impl IntoIterator<Item = i64>) -> Expect {
    Expect {
        var: var.to_string(),
        values: values.into_iter().map(Value::Int).collect(),
    }
}

/// Names of the hot corpus, in corpus order (metric suffixes).
pub const CORPUS_NAMES: [&str; 6] = ["sum", "dot", "pipe", "pcase", "wave", "nest"];

/// Draw weights of the hot corpus, in corpus order: the heavy `sum`
/// (1000 contended critical trips) is drawn least so no single program
/// owns the mix.
const CORPUS_WEIGHTS: [u64; 6] = [1, 2, 2, 3, 2, 2];

/// The fixed hot corpus: six programs that between them use every
/// construct family of the language front end.
pub fn corpus() -> Vec<Program> {
    let sum = "\
      Force FSUM of NP ident ME
      Shared INTEGER TOTAL
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, 1000
      Critical LCK
      TOTAL = TOTAL + K
      End critical
100   End selfsched DO
      Join
";
    let dot = "\
      Force FDOT of NP ident ME
      Shared REAL X(64), Y(64), DOT
      Externf SETUP
      Private INTEGER K
      Private REAL T
      End declarations
      CALL SETUP(X, Y, 64)
      Selfsched DO 100 K = 1, 64
      T = X(K) * Y(K)
      Critical DLCK
      DOT = DOT + T
      End critical
100   End selfsched DO
      Join
      Forcesub SETUP(A, B, N) of NP ident ME
      REAL A(64), B(64)
      INTEGER N
      Private INTEGER J
      End declarations
      Presched DO 10 J = 1, N
      A(J) = FLOAT(J)
      B(J) = 2.0
10    End presched DO
      Join
";
    // Every stage adds one; process 0 takes the NP-1 increments back
    // off, so a skipped stage shows and the result is NP-independent.
    let pipe = "\
      Force FPIPE of NP ident ME
      Shared INTEGER OUT(10)
      Async INTEGER SLOT(8)
      Private INTEGER R, V
      End declarations
      IF (ME .EQ. 0) THEN
      DO 10 R = 1, 10
      Produce SLOT(1) = R * 100
      Consume SLOT(NP) into V
      OUT(R) = V - (NP - 1)
10    CONTINUE
      ELSE
      DO 20 R = 1, 10
      Consume SLOT(ME) into V
      Produce SLOT(ME + 1) = V + 1
20    CONTINUE
      END IF
      Join
";
    let pcase = "\
      Force FPCASE of NP ident ME
      Shared INTEGER A, B, C, D
      Private INTEGER K, T
      End declarations
      Selfsched Pcase
      Usect
      T = 0
      DO 10 K = 1, 50
      T = T + K
10    CONTINUE
      A = T
      Csect (NP .GT. 0)
      T = 0
      DO 20 K = 1, 40
      T = T + 2 * K
20    CONTINUE
      B = T
      Csect (NP .LT. 0)
      C = 1
      Usect
      D = 7
      End pcase
      Join
";
    // A dependency chain through an asynchronous array: trip I waits
    // for cell I and fills cell I+1, whichever process owns it.
    let wave = "\
      Force FWAVE of NP ident ME
      Shared INTEGER RES
      Async INTEGER W(13)
      Private INTEGER I, V
      End declarations
      Barrier
      Produce W(1) = 1
      End barrier
      Presched DO 100 I = 1, 12
      Consume W(I) into V
      Produce W(I + 1) = V + I
100   End presched DO
      Barrier
      Consume W(13) into V
      RES = V
      End barrier
      Join
";
    let nest = "\
      Force FNEST of NP ident ME
      Shared INTEGER GRID(6,5), COUNT
      Private INTEGER I, J
      End declarations
      Selfsched DO2 100 I = 1, 6 ; J = 1, 5
      GRID(I, J) = GRID(I, J) + I * 10 + J
      Critical CL
      COUNT = COUNT + 1
      End critical
100   End selfsched DO2
      Barrier
      End barrier
      Presched DO2 200 I = 1, 6 ; J = 1, 5
      GRID(I, J) = GRID(I, J) + 1000
200   End presched DO2
      Join
";
    // Column-major GRID(6,5): word (i-1) + (j-1)*6.
    let grid = (1..=5i64).flat_map(|j| (1..=6i64).map(move |i| 1000 + i * 10 + j));
    vec![
        Program::new("sum", sum.into(), vec![ints("TOTAL", [1000 * 1001 / 2])]),
        Program::new(
            "dot",
            dot.into(),
            vec![Expect {
                var: "DOT".into(),
                // sum of 2k, exact in floating point in any order
                values: vec![Value::Real((64 * 65) as f64)],
            }],
        ),
        Program::new(
            "pipe",
            pipe.into(),
            vec![ints("OUT", (1..=10).map(|r| r * 100))],
        ),
        Program::new(
            "pcase",
            pcase.into(),
            vec![
                ints("A", [50 * 51 / 2]),
                ints("B", [40 * 41]),
                ints("C", [0]),
                ints("D", [7]),
            ],
        ),
        Program::new("wave", wave.into(), vec![ints("RES", [1 + 12 * 13 / 2])]),
        Program::new(
            "nest",
            nest.into(),
            vec![ints("GRID", grid), ints("COUNT", [30])],
        ),
    ]
}

/// The empty program: no VM work, so a job is the stack's fixed tax.
pub fn null_program() -> Program {
    let src = "\
      Force FNULL of NP ident ME
      End declarations
      Join
";
    Program::new("null", src.into(), Vec::new())
}

/// Weighted draw of a corpus index.
pub fn draw_program(rng: &mut XorShift64) -> usize {
    let total: u64 = CORPUS_WEIGHTS.iter().sum();
    let mut pick = rng.next_below(total);
    for (i, w) in CORPUS_WEIGHTS.iter().enumerate() {
        if pick < *w {
            return i;
        }
        pick -= w;
    }
    unreachable!("pick is below the weight total")
}

/// Uniform draw of a machine personality.
pub fn draw_machine(rng: &mut XorShift64) -> MachineId {
    MachineId::all()[rng.next_index(6)]
}

/// The mean of `per_program` under the corpus draw weights.
pub fn weighted_mean(per_program: &[f64; 6]) -> f64 {
    let total: u64 = CORPUS_WEIGHTS.iter().sum();
    let sum: f64 = per_program
        .iter()
        .zip(CORPUS_WEIGHTS)
        .map(|(v, w)| v * w as f64)
        .sum();
    sum / total as f64
}

/// A generator of never-seen sources: five templates with drawn
/// identifiers, constants and loop bounds of at most 64 trips.
///
/// Identifiers carry the source's serial number in base 25, so two
/// sources from generators with different `(stream, streams)` — or two
/// serials of one generator — can never be byte-identical, whatever the
/// seed draws.
pub struct ColdGen {
    rng: XorShift64,
    next_serial: u64,
    stride: u64,
}

impl ColdGen {
    /// Stream `stream` of `streams` interleaved generators under `seed`.
    pub fn new(seed: u64, stream: u64, streams: u64) -> ColdGen {
        assert!(stream < streams);
        ColdGen {
            rng: XorShift64::new(seed ^ (stream + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            next_serial: stream,
            stride: streams,
        }
    }

    /// `Q`, a role letter, two drawn letters, then the serial in
    /// letters: unique per serial and clear of every keyword.  The
    /// alphabet stops at `Y`, because names holding `ZZ` belong to the
    /// implementation (`xZZE`/`xZZF` are an async variable's locks).
    fn ident(&mut self, serial: u64, role: char) -> String {
        let letter = |n: u64| (b'A' + n as u8) as char;
        let mut s = String::from("Q");
        s.push(role);
        for _ in 0..2 {
            s.push(letter(self.rng.next_below(25)));
        }
        let mut n = serial;
        loop {
            s.push(letter(n % 25));
            n /= 25;
            if n == 0 {
                break;
            }
        }
        s
    }
}

impl Iterator for ColdGen {
    type Item = (Program, MachineId);

    fn next(&mut self) -> Option<(Program, MachineId)> {
        let serial = self.next_serial;
        self.next_serial += self.stride;
        let template = self.rng.next_index(5);
        let machine = draw_machine(&mut self.rng);
        let unit = self.ident(serial, 'U');
        let shared = self.ident(serial, 'S');
        let lock = self.ident(serial, 'L');
        let c = self.rng.next_i64_in(2, 99);
        let d = self.rng.next_i64_in(1, 999);
        let program = match template {
            0 => {
                let n = self.rng.next_i64_in(8, 64);
                let src = format!(
                    "      Force {unit} of NP ident ME
      Shared INTEGER {shared}
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, {n}
      Critical {lock}
      {shared} = {shared} + K * {c}
      End critical
100   End selfsched DO
      Join
"
                );
                Program::new("ksum", src, vec![ints(&shared, [c * n * (n + 1) / 2])])
            }
            1 => {
                let n = self.rng.next_i64_in(8, 64);
                let src = format!(
                    "      Force {unit} of NP ident ME
      Shared INTEGER {shared}({n})
      Private INTEGER I
      End declarations
      Presched DO 100 I = 1, {n}
      {shared}(I) = I * {c} + {d}
100   End presched DO
      Join
"
                );
                Program::new("fill", src, vec![ints(&shared, (1..=n).map(|i| i * c + d))])
            }
            2 => {
                let rounds = self.rng.next_i64_in(2, 8);
                let chan = self.ident(serial, 'C');
                let src = format!(
                    "      Force {unit} of NP ident ME
      Shared INTEGER {shared}({rounds})
      Async INTEGER {chan}(4)
      Private INTEGER R, V
      End declarations
      IF (ME .EQ. 0) THEN
      DO 10 R = 1, {rounds}
      Produce {chan}(1) = R * {c}
      Consume {chan}(NP) into V
      {shared}(R) = V - (NP - 1) * {d}
10    CONTINUE
      ELSE
      DO 20 R = 1, {rounds}
      Consume {chan}(ME) into V
      Produce {chan}(ME + 1) = V + {d}
20    CONTINUE
      END IF
      Join
"
                );
                Program::new(
                    "ring",
                    src,
                    vec![ints(&shared, (1..=rounds).map(|r| r * c))],
                )
            }
            3 => {
                let n = self.rng.next_i64_in(4, 32);
                let other = self.ident(serial, 'T');
                let src = format!(
                    "      Force {unit} of NP ident ME
      Shared INTEGER {shared}, {other}
      Private INTEGER K, T
      End declarations
      Selfsched Pcase
      Usect
      T = 0
      DO 10 K = 1, {n}
      T = T + K * {c}
10    CONTINUE
      {shared} = T
      Csect ({d} .GT. 0)
      {other} = {d}
      Csect ({d} .LT. 0)
      {other} = -1
      End pcase
      Join
"
                );
                Program::new(
                    "sect",
                    src,
                    vec![ints(&shared, [c * n * (n + 1) / 2]), ints(&other, [d])],
                )
            }
            _ => {
                let rows = self.rng.next_i64_in(2, 8);
                let cols = self.rng.next_i64_in(2, 8);
                let count = self.ident(serial, 'N');
                let src = format!(
                    "      Force {unit} of NP ident ME
      Shared INTEGER {shared}({rows},{cols}), {count}
      Private INTEGER I, J
      End declarations
      Selfsched DO2 100 I = 1, {rows} ; J = 1, {cols}
      {shared}(I, J) = I * {c} + J
      Critical {lock}
      {count} = {count} + 1
      End critical
100   End selfsched DO2
      Join
"
                );
                let cells = (1..=cols).flat_map(|j| (1..=rows).map(move |i| i * c + j));
                Program::new(
                    "grid",
                    src,
                    vec![ints(&shared, cells), ints(&count, [rows * cols])],
                )
            }
        };
        Some((program, machine))
    }
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the job is due, in ns from the start of the schedule.
    pub due_ns: u64,
    pub program: usize,
    pub machine: MachineId,
    pub tenant: usize,
    pub high: bool,
}

/// Number of tenants on the open-loop workload.
pub const TENANTS: usize = 8;

/// A Poisson arrival schedule at `rate_per_s` covering `span_ns`: jobs
/// drawn from the hot corpus, [`TENANTS`] tenants, 1 in 8 high priority.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, span_ns: u64) -> Vec<Arrival> {
    let mut rng = XorShift64::new(seed ^ 0x0a11_1ea5);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Uniform in (0, 1]: the 53 high bits, never zero after the +1.
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate_per_s * 1e9;
        if t >= span_ns as f64 {
            return out;
        }
        out.push(Arrival {
            due_ns: t as u64,
            program: draw_program(&mut rng),
            machine: draw_machine(&mut rng),
            tenant: rng.next_index(TENANTS),
            high: rng.next_below(8) == 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use the_force::run_force_source;

    fn cold(seed: u64, stream: u64, streams: u64, n: usize) -> Vec<(Program, MachineId)> {
        ColdGen::new(seed, stream, streams).take(n).collect()
    }

    #[test]
    fn the_same_seed_yields_byte_identical_sources_and_schedules() {
        let a = cold(7, 0, 2, 200);
        let b = cold(7, 0, 2, 200);
        for ((pa, ma), (pb, mb)) in a.iter().zip(&b) {
            assert_eq!(pa.source, pb.source);
            assert_eq!(pa.expect, pb.expect);
            assert_eq!(ma, mb);
        }
        assert_ne!(a[0].0.source, cold(8, 0, 2, 1)[0].0.source);
        let s = poisson_schedule(7, 800.0, 2_000_000_000);
        assert_eq!(s, poisson_schedule(7, 800.0, 2_000_000_000));
        assert_ne!(s, poisson_schedule(8, 800.0, 2_000_000_000));
        let draws = |seed| {
            let mut rng = XorShift64::new(seed);
            (0..100)
                .map(|_| (draw_program(&mut rng), draw_machine(&mut rng)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
    }

    #[test]
    fn the_poisson_schedule_has_the_asked_rate_and_mix() {
        let s = poisson_schedule(1989, 800.0, 20_000_000_000);
        assert!(
            (15_500..16_500).contains(&s.len()),
            "{} arrivals in 20 s",
            s.len()
        );
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let high = s.iter().filter(|a| a.high).count() as f64 / s.len() as f64;
        assert!((0.10..0.15).contains(&high), "high share {high}");
        assert_eq!(
            s.iter().map(|a| a.tenant).collect::<HashSet<_>>().len(),
            TENANTS
        );
    }

    #[test]
    fn no_two_cold_sources_collide() {
        let mut seen = HashSet::new();
        for stream in 0..2 {
            for (p, _) in cold(1989, stream, 2, 20_000) {
                assert!(!p.source.contains("ZZ"), "reserved name in {}", p.source);
                assert!(seen.insert(p.source), "duplicate cold source");
            }
        }
        let names: HashSet<_> = cold(1989, 0, 1, 500).iter().map(|(p, _)| p.name).collect();
        assert_eq!(names.len(), 5, "every template is drawn");
    }

    #[test]
    fn every_program_produces_its_expected_value_on_every_machine() {
        let mut programs = corpus();
        assert_eq!(
            programs.iter().map(|p| p.name).collect::<Vec<_>>(),
            CORPUS_NAMES
        );
        programs.push(null_program());
        // Enough cold draws that each template appears several times.
        programs.extend(cold(1989, 0, 1, 40).into_iter().map(|(p, _)| p));
        for p in &programs {
            for id in MachineId::all() {
                for nproc in [1, 2] {
                    let out = run_force_source(&p.source, id, nproc).unwrap_or_else(|e| {
                        panic!("{} on {} x{nproc}: {e}\n{}", p.name, id.tag(), p.source)
                    });
                    assert!(
                        p.check(&out),
                        "{} on {} x{nproc}: want {:?}, got {:?}",
                        p.name,
                        id.tag(),
                        p.expect,
                        out.shared_values
                    );
                }
            }
        }
    }

    #[test]
    fn a_wrong_output_fails_the_check() {
        let p = &corpus()[0];
        let mut out = run_force_source(&p.source, MachineId::Hep, 2).unwrap();
        assert!(p.check(&out));
        out.shared_values
            .insert("TOTAL".into(), vec![Value::Int(1)]);
        assert!(!p.check(&out));
        out.shared_values.remove("TOTAL");
        assert!(!p.check(&out));
    }
}
