//! Seeded deterministic session state machines.
//!
//! Three session types model the paper's interactive exploration loop the
//! way the RUBiS benchmark models an auction site — as distinct user
//! behaviors with their own request mixes:
//!
//! * **browse** — orientation: `INFO`, then a few unconditional `HIST`
//!   overviews (with the odd `PING` liveness check);
//! * **drill-down** — progressive refinement: one `SELECT` then a chain of
//!   `REFINE`s that monotonically narrow the id set (each `REFINE`
//!   intersects the *previous reply's* ids with a new predicate), often
//!   closed by a conditional `HIST` over the same threshold — the shape
//!   that exercises the QueryCache and PlanCache;
//! * **tracker** — provenance: `SELECT` a beam at a late timestep, then
//!   `TRACK` subsets of it across every timestep.
//!
//! A session is a state machine, not a fixed script: `REFINE` and `TRACK`
//! lines embed particle ids extracted from earlier replies, so the request
//! *stream* is a deterministic function of (seed, config, server replies).
//! Against a deterministic server this makes whole transcripts byte-stable
//! per seed — which `tests/workload_determinism.rs` pins.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three modeled user behaviors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// Overview histograms and catalog metadata.
    Browse,
    /// SELECT → REFINE chains that monotonically narrow.
    DrillDown,
    /// Particle tracking across timesteps.
    Tracker,
}

impl SessionKind {
    /// Lower-case label used in reports and record names.
    pub fn as_str(self) -> &'static str {
        match self {
            SessionKind::Browse => "browse",
            SessionKind::DrillDown => "drill_down",
            SessionKind::Tracker => "tracker",
        }
    }

    /// All kinds, in a fixed order.
    pub const ALL: [SessionKind; 3] = [
        SessionKind::Browse,
        SessionKind::DrillDown,
        SessionKind::Tracker,
    ];
}

/// Relative weights of the three session kinds in a workload mix.
#[derive(Debug, Clone, Copy)]
pub struct SessionMix {
    /// Weight of [`SessionKind::Browse`] sessions.
    pub browse: u32,
    /// Weight of [`SessionKind::DrillDown`] sessions.
    pub drill_down: u32,
    /// Weight of [`SessionKind::Tracker`] sessions.
    pub tracker: u32,
}

impl Default for SessionMix {
    /// The paper's loop is browse-heavy: orientation first, refinement
    /// second, tracking the rarest.
    fn default() -> Self {
        Self {
            browse: 50,
            drill_down: 35,
            tracker: 15,
        }
    }
}

impl std::str::FromStr for SessionMix {
    type Err = ();

    /// Parse `BROWSE:DRILL:TRACKER` weights; the total must be nonzero.
    fn from_str(s: &str) -> Result<Self, ()> {
        let weights: Vec<u32> = s
            .split(':')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| ())?;
        match weights[..] {
            [browse, drill_down, tracker] if weights.iter().any(|&w| w > 0) => Ok(Self {
                browse,
                drill_down,
                tracker,
            }),
            _ => Err(()),
        }
    }
}

impl SessionMix {
    /// Draw one kind proportionally to the weights (total must be > 0).
    pub fn sample(&self, rng: &mut StdRng) -> SessionKind {
        let total = self.browse + self.drill_down + self.tracker;
        assert!(total > 0, "session mix has zero total weight");
        let draw = rng.gen_range(0..total);
        if draw < self.browse {
            SessionKind::Browse
        } else if draw < self.browse + self.drill_down {
            SessionKind::DrillDown
        } else {
            SessionKind::Tracker
        }
    }
}

/// The catalog-shaped vocabulary sessions draw their requests from.
///
/// Thresholds are pre-formatted, *quantized* literals: many sessions
/// drawing from the same small grid means repeated query shapes, which is
/// what lets the server's QueryCache and PlanCache earn their hits under
/// mixed traffic.
#[derive(Debug, Clone)]
pub struct SessionSpace {
    /// Timesteps available in the catalog.
    pub steps: Vec<usize>,
    /// Columns browse sessions histogram.
    pub hist_columns: Vec<String>,
    /// Columns drill-down sessions refine on (predicates against zero).
    pub refine_columns: Vec<String>,
    /// Quantized `px` threshold literals, ascending (weakest first).
    pub px_thresholds: Vec<String>,
    /// Cap on ids embedded in one `REFINE`/`TRACK` line, keeping request
    /// lines far under the server's 64 KiB cap.
    pub max_embedded_ids: usize,
}

impl SessionSpace {
    /// The default vocabulary over the given timesteps, matching the LWFA
    /// column set every generated catalog carries.
    pub fn for_steps(steps: Vec<usize>) -> Self {
        assert!(!steps.is_empty(), "session space needs at least one step");
        Self {
            steps,
            hist_columns: ["px", "x", "y"].map(String::from).to_vec(),
            refine_columns: ["x", "y", "z", "py"].map(String::from).to_vec(),
            px_thresholds: ["0", "1e8", "1e9", "2.5e9", "5e9"]
                .map(String::from)
                .to_vec(),
            max_embedded_ids: 200,
        }
    }
}

/// One planned request, either fully determined at construction or
/// materialized from ids seen in earlier replies.
#[derive(Debug, Clone)]
enum PlannedOp {
    /// A complete request line.
    Line(String),
    /// `REFINE` the most recent id set with a further predicate.
    RefineFromIds { step: usize, query: String },
    /// `TRACK` a prefix of the most recent id set.
    TrackFromIds { take: usize },
}

/// One materialized request with the think time to apply before sending it.
#[derive(Debug, Clone)]
pub struct SessionOp {
    /// The request line (no trailing newline).
    pub line: String,
    /// Client-side think time before this request is sent.
    pub think: Duration,
}

/// A seeded session: a plan drawn entirely from the seed at construction,
/// materialized op by op against the replies the server actually gave.
#[derive(Debug)]
pub struct Session {
    kind: SessionKind,
    plan: std::vec::IntoIter<(PlannedOp, Duration)>,
    /// Ids csv from the most recent `SELECT`/`REFINE` reply.
    last_ids: String,
    /// Cap on ids embedded in a materialized `REFINE` line.
    max_embedded_ids: usize,
    aborted: bool,
}

/// Extract the ids csv (field 3) from an `OK\tSELECT`/`OK\tREFINE` reply.
fn ids_of_reply(reply: &str) -> Option<&str> {
    if reply.starts_with("OK\tSELECT\t") || reply.starts_with("OK\tREFINE\t") {
        reply.split('\t').nth(3)
    } else {
        None
    }
}

/// First `n` comma-separated entries of an ids csv (string-level, so the
/// server's id order is preserved byte-for-byte).
fn take_ids(csv: &str, n: usize) -> String {
    if csv.is_empty() {
        return String::new();
    }
    let mut end = csv.len();
    for (count, (pos, _)) in csv.match_indices(',').enumerate() {
        if count + 1 >= n {
            end = pos;
            break;
        }
    }
    csv[..end].to_string()
}

/// Sample an exponential think time with the given mean, capped at 4× the
/// mean so one unlucky draw cannot stall a whole session.
fn sample_think(rng: &mut StdRng, mean: Duration) -> Duration {
    if mean.is_zero() {
        return Duration::ZERO;
    }
    let u: f64 = rng.gen_range(0.0..1.0);
    let factor = (-(1.0 - u).ln()).min(4.0);
    mean.mul_f64(factor)
}

impl Session {
    /// Build a session of `kind` from `seed`: every random draw (steps,
    /// thresholds, chain depths, think times) happens here, so two sessions
    /// with the same `(kind, seed, space, think)` are identical machines.
    pub fn new(kind: SessionKind, seed: u64, space: &SessionSpace, mean_think: Duration) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = match kind {
            SessionKind::Browse => Self::plan_browse(&mut rng, space),
            SessionKind::DrillDown => Self::plan_drill_down(&mut rng, space),
            SessionKind::Tracker => Self::plan_tracker(&mut rng, space),
        };
        let plan: Vec<(PlannedOp, Duration)> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| {
                let think = if i == 0 {
                    // The arrival process owns the session's start time.
                    Duration::ZERO
                } else {
                    sample_think(&mut rng, mean_think)
                };
                (op, think)
            })
            .collect();
        Self {
            kind,
            plan: plan.into_iter(),
            last_ids: String::new(),
            max_embedded_ids: space.max_embedded_ids,
            aborted: false,
        }
    }

    fn pick<'a>(rng: &mut StdRng, items: &'a [String]) -> &'a str {
        &items[rng.gen_range(0..items.len())]
    }

    fn plan_browse(rng: &mut StdRng, space: &SessionSpace) -> Vec<PlannedOp> {
        let mut ops = vec![PlannedOp::Line("INFO".to_string())];
        let hists = rng.gen_range(2..6usize);
        for _ in 0..hists {
            if rng.gen_bool(0.25) {
                ops.push(PlannedOp::Line("PING".to_string()));
            }
            let step = space.steps[rng.gen_range(0..space.steps.len())];
            let column = Self::pick(rng, &space.hist_columns);
            let bins = [16usize, 32, 64][rng.gen_range(0..3usize)];
            ops.push(PlannedOp::Line(format!("HIST\t{step}\t{column}\t{bins}")));
        }
        ops
    }

    fn plan_drill_down(rng: &mut StdRng, space: &SessionSpace) -> Vec<PlannedOp> {
        let step = space.steps[rng.gen_range(0..space.steps.len())];
        let threshold = Self::pick(rng, &space.px_thresholds).to_string();
        let mut ops = vec![PlannedOp::Line(format!("SELECT\t{step}\tpx > {threshold}"))];
        let depth = rng.gen_range(1..4usize);
        for _ in 0..depth {
            let column = Self::pick(rng, &space.refine_columns);
            let cmp = if rng.gen_bool(0.5) { '>' } else { '<' };
            ops.push(PlannedOp::RefineFromIds {
                step,
                query: format!("{column} {cmp} 0"),
            });
        }
        if rng.gen_bool(0.5) {
            // Close with a conditional overview of what survived the drill;
            // the repeated `(step, threshold)` shape is QueryCache fodder.
            ops.push(PlannedOp::Line(format!(
                "HIST\t{step}\tpx\t32\tpx > {threshold}"
            )));
        }
        ops
    }

    fn plan_tracker(rng: &mut StdRng, space: &SessionSpace) -> Vec<PlannedOp> {
        // Beams live late in the run: pick from the last half of the steps
        // and the strongest thresholds.
        let half = space.steps.len().div_ceil(2);
        let step = space.steps[rng.gen_range(space.steps.len() - half..space.steps.len())];
        let strong = space.px_thresholds.len().div_ceil(2);
        let threshold = &space.px_thresholds
            [rng.gen_range(space.px_thresholds.len() - strong..space.px_thresholds.len())];
        let mut ops = vec![PlannedOp::Line(format!("SELECT\t{step}\tpx > {threshold}"))];
        let take = rng.gen_range(3..10usize);
        ops.push(PlannedOp::TrackFromIds { take });
        if rng.gen_bool(0.5) {
            ops.push(PlannedOp::TrackFromIds { take: take / 2 + 1 });
        }
        ops
    }

    /// This session's kind.
    pub fn kind(&self) -> SessionKind {
        self.kind
    }

    /// True when the session ended early on an `ERR` reply (admission
    /// control or a transport failure) rather than draining its plan.
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    /// Advance the machine: digest the previous reply (if any) and return
    /// the next request, or `None` when the session is over.
    ///
    /// Any `ERR` reply ends the session: a rejected user does not keep
    /// hammering, and dependent ops (`REFINE`/`TRACK`) would be built on
    /// ids that never arrived.
    pub fn next_op(&mut self, prev_reply: Option<&str>) -> Option<SessionOp> {
        if self.aborted {
            return None;
        }
        if let Some(reply) = prev_reply {
            if reply.starts_with("ERR\t") {
                self.aborted = true;
                return None;
            }
            if let Some(ids) = ids_of_reply(reply) {
                self.last_ids = ids.to_string();
            }
        }
        let (op, think) = self.plan.next()?;
        let line = match op {
            PlannedOp::Line(line) => line,
            PlannedOp::RefineFromIds { step, query } => {
                let ids = take_ids(&self.last_ids, self.max_embedded_ids);
                format!("REFINE\t{step}\t{ids}\t{query}")
            }
            PlannedOp::TrackFromIds { take } => {
                format!("TRACK\t{}", take_ids(&self.last_ids, take))
            }
        };
        Some(SessionOp { line, think })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SessionSpace {
        SessionSpace::for_steps(vec![0, 1, 2, 3])
    }

    /// Drive a session against a scripted responder that answers every ids
    /// request with a fixed id set.
    fn transcript(kind: SessionKind, seed: u64) -> Vec<String> {
        let mut session = Session::new(kind, seed, &space(), Duration::ZERO);
        let mut prev: Option<String> = None;
        let mut lines = Vec::new();
        while let Some(op) = session.next_op(prev.as_deref()) {
            let verb = op.line.split('\t').next().unwrap().to_string();
            prev = Some(match verb.as_str() {
                "SELECT" | "REFINE" => format!("OK\t{verb}\t3\t7,11,13"),
                "HIST" => "OK\tHIST\t10\t0\t1\t5,5".to_string(),
                "TRACK" => "OK\tTRACK\t2\t4\t7:2,11:2".to_string(),
                "INFO" => "OK\tINFO\t4\t0,1,2,3".to_string(),
                "PING" => "OK\tPONG".to_string(),
                other => panic!("unexpected verb {other}"),
            });
            lines.push(op.line);
        }
        assert!(!session.aborted());
        lines
    }

    #[test]
    fn sessions_are_deterministic_per_seed() {
        for kind in SessionKind::ALL {
            assert_eq!(transcript(kind, 9), transcript(kind, 9), "{kind:?}");
            assert_ne!(transcript(kind, 9), transcript(kind, 10), "{kind:?}");
        }
    }

    #[test]
    fn browse_sessions_open_with_info_and_histogram() {
        let lines = transcript(SessionKind::Browse, 1);
        assert_eq!(lines[0], "INFO");
        assert!(lines.iter().any(|l| l.starts_with("HIST\t")), "{lines:?}");
        assert!(
            lines
                .iter()
                .all(|l| ["INFO", "PING", "HIST"].contains(&l.split('\t').next().unwrap())),
            "browse stays read-only: {lines:?}"
        );
    }

    #[test]
    fn drill_down_refines_embed_the_replied_ids() {
        for seed in 0..8 {
            let lines = transcript(SessionKind::DrillDown, seed);
            assert!(lines[0].starts_with("SELECT\t"), "{lines:?}");
            let refines: Vec<_> = lines.iter().filter(|l| l.starts_with("REFINE\t")).collect();
            assert!(!refines.is_empty(), "{lines:?}");
            for refine in refines {
                let fields: Vec<&str> = refine.split('\t').collect();
                assert_eq!(fields[2], "7,11,13", "ids come from the prior reply");
            }
        }
    }

    #[test]
    fn tracker_tracks_a_prefix_of_the_selection() {
        let mut saw_truncation = false;
        for seed in 0..16 {
            let lines = transcript(SessionKind::Tracker, seed);
            assert!(lines[0].starts_with("SELECT\t"), "{lines:?}");
            for track in lines.iter().filter(|l| l.starts_with("TRACK\t")) {
                let ids = track.split('\t').nth(1).unwrap();
                assert!("7,11,13".starts_with(ids), "prefix of the selection: {ids}");
                saw_truncation |= ids != "7,11,13";
            }
        }
        assert!(saw_truncation, "small takes must truncate the id set");
    }

    #[test]
    fn err_replies_abort_the_session() {
        let mut session = Session::new(SessionKind::DrillDown, 3, &space(), Duration::ZERO);
        let first = session.next_op(None).unwrap();
        assert!(first.line.starts_with("SELECT\t"));
        assert!(session
            .next_op(Some(
                "ERR\tbusy (server request queue is full, retry later)"
            ))
            .is_none());
        assert!(session.aborted());
        assert!(session.next_op(None).is_none(), "stays ended");
    }

    #[test]
    fn take_ids_truncates_at_comma_boundaries() {
        assert_eq!(take_ids("1,2,3", 2), "1,2");
        assert_eq!(take_ids("1,2,3", 5), "1,2,3");
        assert_eq!(take_ids("1", 1), "1");
        assert_eq!(take_ids("", 4), "");
    }

    #[test]
    fn mix_sampling_respects_zero_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let mix = SessionMix {
            browse: 0,
            drill_down: 1,
            tracker: 0,
        };
        for _ in 0..64 {
            assert_eq!(mix.sample(&mut rng), SessionKind::DrillDown);
        }
        let mix = SessionMix::default();
        let mut seen = [false; 3];
        for _ in 0..256 {
            match mix.sample(&mut rng) {
                SessionKind::Browse => seen[0] = true,
                SessionKind::DrillDown => seen[1] = true,
                SessionKind::Tracker => seen[2] = true,
            }
        }
        assert_eq!(seen, [true; 3], "every kind appears in the default mix");
    }
}
