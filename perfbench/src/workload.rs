//! The three workloads: their data scales, cache budgets, and the seeded
//! session plans every client connection replays.
//!
//! A plan is drawn entirely from the workload seed and a per-step summary
//! of the generated data, before the timed phase starts. Only the id lists
//! of `REFINE` and `TRACK` are left open: they are cut from the replies the
//! session has already received, so the lines a run sends are a function of
//! the seed and the (deterministic) server replies alone.

use std::fmt::Write as _;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's drill-down loop over a fully resident catalog.
    Explore,
    /// A time-ordered walk over a catalog larger than the dataset cache.
    Sweep,
    /// The `explore` stream sent to a router over three shard servers.
    Cluster,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Explore, Workload::Sweep, Workload::Cluster];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Sweep => "sweep",
            Workload::Cluster => "cluster",
        }
    }

    /// Whether the stream is the drill-down (`explore`) plan.
    pub fn drills_down(self) -> bool {
        self != Workload::Sweep
    }

    /// The data the workload runs on.
    pub fn scale(self) -> Scale {
        match self {
            Workload::Explore | Workload::Cluster => Scale {
                particles: 30_000,
                timesteps: 24,
            },
            // Small steps keep a store-backed miss near 10 ms, so a 10 s run
            // still completes the ~1000 requests a p99 needs.
            Workload::Sweep => Scale {
                particles: 16_000,
                timesteps: 32,
            },
        }
    }

    /// Dataset-cache budget as a share of the catalog's on-disk bytes. A
    /// loaded step is larger than its files (range encodings, zone maps),
    /// so 4 keeps `explore` resident, and `sweep`'s share is checked to
    /// leave the resident catalog at least twice the budget.
    pub fn cache_share(self) -> f64 {
        match self {
            Workload::Explore | Workload::Cluster => 4.0,
            Workload::Sweep => 0.375,
        }
    }
}

/// Particles per timestep and timesteps of a generated catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Particles per timestep.
    pub particles: usize,
    /// Timesteps.
    pub timesteps: usize,
}

/// SplitMix64: a tiny, fast, seedable generator. The benchmark owns it so
/// its plans cannot change when a library's generator does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from neighbouring seeds.
    pub fn new(seed: u64) -> Rng {
        let mut rng = Rng(seed ^ 0x6a09_e667_f3bc_c909);
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Columns whose quantiles the plans draw thresholds from.
const SUMMARY_COLUMNS: [&str; 3] = ["px", "x", "y"];

/// Quantile points kept per column and step.
const SUMMARY_POINTS: usize = 256;

/// Per-step quantiles of the [`SUMMARY_COLUMNS`], taken while generating:
/// thresholds follow the data, so every seed's selections stay non-trivial.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Space {
    /// `quantiles[step][column]` holds `SUMMARY_POINTS + 1` sorted points.
    quantiles: Vec<Vec<Vec<f64>>>,
}

impl Space {
    /// Record the summary of one step's table (steps are added in order).
    pub fn add_step(&mut self, table: &datastore::ParticleTable) {
        let per_column = SUMMARY_COLUMNS
            .iter()
            .map(|name| {
                let mut values: Vec<f64> = table
                    .float_column(name)
                    .expect("generated tables carry the standard columns")
                    .iter()
                    .copied()
                    .filter(|v| v.is_finite())
                    .collect();
                values.sort_by(f64::total_cmp);
                (0..=SUMMARY_POINTS)
                    .map(|i| {
                        let pos = i * (values.len().max(1) - 1) / SUMMARY_POINTS;
                        values.get(pos).copied().unwrap_or(0.0)
                    })
                    .collect()
            })
            .collect();
        self.quantiles.push(per_column);
    }

    /// Timesteps summarized.
    pub fn steps(&self) -> usize {
        self.quantiles.len()
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) of `column` at `step`, interpolated.
    pub fn quantile(&self, step: usize, column: &str, q: f64) -> f64 {
        let c = SUMMARY_COLUMNS
            .iter()
            .position(|n| *n == column)
            .expect("summarized column");
        let points = &self.quantiles[step][c];
        let pos = q.clamp(0.0, 1.0) * SUMMARY_POINTS as f64;
        let i = (pos.floor() as usize).min(SUMMARY_POINTS - 1);
        let frac = pos - i as f64;
        points[i] + (points[i + 1] - points[i]) * frac
    }
}

/// The protocol verb of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// `SELECT`
    Select,
    /// `REFINE`
    Refine,
    /// `HIST`
    Hist,
    /// `TRACK`
    Track,
}

impl Op {
    /// Every op, in report order.
    pub const ALL: [Op; 4] = [Op::Select, Op::Refine, Op::Hist, Op::Track];

    /// The `STATS` field prefix and metric prefix of the op.
    pub fn name(self) -> &'static str {
        match self {
            Op::Select => "select",
            Op::Refine => "refine",
            Op::Hist => "hist",
            Op::Track => "track",
        }
    }

    /// The op of a request line.
    pub fn of_line(line: &str) -> Op {
        match line.split('\t').next().unwrap_or("") {
            "SELECT" => Op::Select,
            "REFINE" => Op::Refine,
            "TRACK" => Op::Track,
            _ => Op::Hist,
        }
    }
}

/// One planned request of a session.
#[derive(Debug, Clone, PartialEq)]
pub enum Planned {
    /// A fully determined request line.
    Line(String),
    /// `REFINE <step> <ids> <query>` over `take` consecutive ids of the
    /// most recent `SELECT`/`REFINE` reply, starting `from` (a share of
    /// the reply) into it; skipped when that reply is empty.
    Refine {
        /// Timestep refined at.
        step: usize,
        /// Where the carried-over ids start, as a share of the reply.
        from: f64,
        /// Ids carried over.
        take: usize,
        /// Refinement predicate.
        query: &'static str,
    },
    /// `TRACK <ids>` over `take` consecutive ids of the session's `SELECT`
    /// reply, starting `from` into it; skipped when that reply is empty.
    Track {
        /// Where the tracked ids start, as a share of the reply.
        from: f64,
        /// Ids tracked.
        take: usize,
    },
}

/// A seeded session: an ordered list of planned requests.
pub type Session = Vec<Planned>;

/// Refinement predicates. A small fixed set, so refinements exercise the
/// plan cache's hit path while the selections they refine stay unique.
const REFINE_PREDICATES: [&str; 4] = ["py > 0", "py < 0", "y > 0", "y < 0"];

/// Unconditional overview histograms `explore` repeats: a stated share of
/// its stream that the query cache answers after warm-up.
pub fn overview_lines(steps: usize) -> Vec<String> {
    let mut lines = Vec::new();
    for k in 1..=4 {
        let step = k * (steps - 1) / 4;
        for column in ["px", "x"] {
            lines.push(format!("HIST\t{step}\t{column}\t64"));
        }
    }
    lines
}

/// Overview histograms per `explore` session (4 of its 16 requests).
const OVERVIEW_PER_SESSION: usize = 4;

/// Timesteps a `sweep` walk histograms in a row.
const SWEEP_WALK: usize = 8;

fn num(v: f64) -> String {
    // Seven significant digits: thresholds stay unique per session (so the
    // query cache misses them) while the lines print identically everywhere.
    format!("{v:.6e}")
}

/// One `explore` session of sixteen requests: four overview histograms, a
/// compound selection refined twice, eight conditional histograms on the
/// selection's momentum cut (four columns at two resolutions), and a
/// `TRACK` of 16 of the selected ids across every step.
///
/// The mix is fixed, not drawn, so every seed gives the op classes the same
/// shares. It is chosen so the percentiles land inside a class, away from
/// the steep steps between classes: as many cheap overview requests as
/// heavier-than-histogram ones put `p50_ms` at the middle of the
/// conditional histograms, and `p99_ms` falls among the `SELECT`s.
fn plan_explore(rng: &mut Rng, space: &Space) -> Session {
    let steps = space.steps();
    let overview = overview_lines(steps);
    let mut ops: Session = (0..OVERVIEW_PER_SESSION)
        .map(|_| Planned::Line(overview[rng.below(overview.len())].clone()))
        .collect();
    let step = steps / 2 + rng.below(steps - steps / 2);
    let px = space.quantile(step, "px", rng.range(0.90, 0.98));
    let (x_lo, x_hi) = (
        space.quantile(step, "x", rng.range(0.02, 0.12)),
        space.quantile(step, "x", rng.range(0.88, 0.98)),
    );
    let (y_lo, y_hi) = (
        space.quantile(step, "y", rng.range(0.02, 0.12)),
        space.quantile(step, "y", rng.range(0.88, 0.98)),
    );
    ops.push(Planned::Line(format!(
        "SELECT\t{step}\tpx > {} && x > {} && x < {} && y > {} && y < {}",
        num(px),
        num(x_lo),
        num(x_hi),
        num(y_lo),
        num(y_hi)
    )));
    for _ in 0..2 {
        ops.push(Planned::Refine {
            step: (step + rng.below(2)).min(steps - 1),
            from: rng.unit(),
            take: 100,
            query: REFINE_PREDICATES[rng.below(REFINE_PREDICATES.len())],
        });
    }
    for column in ["x", "y", "px", "py"] {
        for bins in [32, 64] {
            ops.push(Planned::Line(format!(
                "HIST\t{step}\t{column}\t{bins}\tpx > {}",
                num(px)
            )));
        }
    }
    ops.push(Planned::Track {
        from: rng.unit(),
        take: 16,
    });
    ops
}

/// One `sweep` walk: a selection at step `s`, conditional histograms with
/// unique thresholds on steps `s+1 … s+8`, a refinement of the selection at
/// the step after, and in every fourth walk a `TRACK` of a few of its ids.
/// The `TRACK`s are placed, not drawn, so their share of a run — and with
/// it the tail they put into `p99_ms` — is the same for every seed.
fn plan_sweep(rng: &mut Rng, space: &Space, walk: usize) -> Session {
    let steps = space.steps();
    let start = rng.below(steps);
    let px = space.quantile(start, "px", rng.range(0.95, 0.99));
    let mut ops = vec![Planned::Line(format!("SELECT\t{start}\tpx > {}", num(px)))];
    for i in 1..=SWEEP_WALK {
        let step = (start + i) % steps;
        let cut = space.quantile(step, "px", rng.range(0.5, 0.95));
        ops.push(Planned::Line(format!(
            "HIST\t{step}\tpx\t64\tpx > {}",
            num(cut)
        )));
    }
    ops.push(Planned::Refine {
        step: (start + SWEEP_WALK + 1) % steps,
        from: rng.unit(),
        take: 100,
        query: REFINE_PREDICATES[rng.below(REFINE_PREDICATES.len())],
    });
    if walk % 4 == 3 {
        ops.push(Planned::Track {
            from: rng.unit(),
            take: 8,
        });
    }
    ops
}

/// The plan of connection `conn`: `sessions` seeded sessions.
pub fn plan_stream(
    workload: Workload,
    seed: u64,
    conn: usize,
    space: &Space,
    sessions: usize,
) -> Vec<Session> {
    let mut rng = Rng::new(seed.wrapping_mul(0x100_0000_01b3) ^ (conn as u64 + 1));
    (0..sessions)
        .map(|walk| {
            if workload.drills_down() {
                plan_explore(&mut rng, space)
            } else {
                plan_sweep(&mut rng, space, walk)
            }
        })
        .collect()
}

/// The id field of an `OK\tSELECT|REFINE\t<n>\t<csv>` reply.
fn reply_ids(reply: &str) -> Option<&str> {
    let mut fields = reply.splitn(4, '\t');
    match (fields.next(), fields.next(), fields.next(), fields.next()) {
        (Some("OK"), Some("SELECT" | "REFINE"), Some(n), Some(ids)) if n != "0" => Some(ids),
        _ => None,
    }
}

/// `take` consecutive ids of a comma-separated list, starting `from` (a
/// share of the list) into it and shifted left to fit.
fn slice_ids(csv: &str, from: f64, take: usize) -> String {
    let ids: Vec<&str> = csv.split(',').collect();
    let take = take.min(ids.len());
    let start = ((from * ids.len() as f64) as usize).min(ids.len() - take);
    ids[start..start + take].join(",")
}

/// Turns a session's plan into request lines, one reply at a time.
#[derive(Debug, Default)]
pub struct Materializer {
    last_ids: Option<String>,
    select_ids: Option<String>,
}

impl Materializer {
    /// Start a new session.
    pub fn reset(&mut self) {
        self.last_ids = None;
        self.select_ids = None;
    }

    /// The request line for `planned`, or `None` when the ids it needs are
    /// absent (the request is skipped).
    pub fn line(&self, planned: &Planned) -> Option<String> {
        match planned {
            Planned::Line(line) => Some(line.clone()),
            Planned::Refine {
                step,
                from,
                take,
                query,
            } => {
                let ids = slice_ids(self.last_ids.as_deref()?, *from, *take);
                let mut line = String::with_capacity(ids.len() + 32);
                write!(line, "REFINE\t{step}\t{ids}\t{query}").expect("write to String");
                Some(line)
            }
            Planned::Track { from, take } => Some(format!(
                "TRACK\t{}",
                slice_ids(self.select_ids.as_deref()?, *from, *take)
            )),
        }
    }

    /// Feed the reply to `line` back into the session.
    pub fn observe(&mut self, line: &str, reply: &str) {
        let op = Op::of_line(line);
        if matches!(op, Op::Select | Op::Refine) {
            self.last_ids = reply_ids(reply).map(str::to_string);
            if op == Op::Select {
                self.select_ids = self.last_ids.clone();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_ids_cuts_at_comma_boundaries() {
        assert_eq!(slice_ids("1,2,3", 0.0, 2), "1,2");
        assert_eq!(slice_ids("1,2,3", 0.5, 1), "2");
        assert_eq!(slice_ids("1,2,3", 0.9, 2), "2,3");
        assert_eq!(slice_ids("1,2,3", 0.3, 9), "1,2,3");
        assert_eq!(slice_ids("7", 0.99, 1), "7");
    }

    #[test]
    fn refine_and_track_take_ids_from_replies() {
        let mut m = Materializer::default();
        let refine = Planned::Refine {
            step: 3,
            from: 0.0,
            take: 2,
            query: "py > 0",
        };
        assert_eq!(m.line(&refine), None, "no ids yet");
        m.observe("SELECT\t3\tpx > 1", "OK\tSELECT\t3\t4,5,6");
        assert_eq!(m.line(&refine).unwrap(), "REFINE\t3\t4,5\tpy > 0");
        m.observe("REFINE\t3\t4,5\tpy > 0", "OK\tREFINE\t0\t");
        assert_eq!(m.line(&refine), None, "empty refinement ends the chain");
        assert_eq!(
            m.line(&Planned::Track {
                from: 0.0,
                take: 16
            })
            .unwrap(),
            "TRACK\t4,5,6"
        );
    }

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..1000 {
            let u = a.unit();
            assert_eq!(u, b.unit());
            assert!((0.0..1.0).contains(&u));
            assert!(a.below(5) < 5);
            b.below(5);
        }
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
