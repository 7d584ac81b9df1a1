//! The certify workloads: the paper's computer search as a fixed ladder
//! of exact solves over universes the benchmark enumerates and holds.
//!
//! Set-up enumerates every universe and solves each instance once, cold
//! (that is where the lazily built dihedral tables are paid for), and
//! repeats both `SETUP_REPS` times on fresh universes. The timed phase then
//! makes whole passes over the warm instances, in an order drawn from the
//! seed, until the run's time is up. Each warm solve is timed by a
//! [`host::Stopwatch`] and follows the host-speed references, and the
//! timed phase's figures are those times scaled by the references' run
//! medians.

use crate::host;
use crate::layers::{KernelTotals, Route};
use crate::report::Outcome;
use crate::stats::{self, ms};
use crate::trace::Tracer;
use crate::RunConfig;
use cyclecover_core::{lambda, DrcCovering};
use cyclecover_ring::Ring;
use cyclecover_solver::api::{
    engine_by_name, Exhaustion, Objective, Optimality, Problem, Solution, SolveRequest,
    SymmetryMode,
};
use cyclecover_solver::bnb::CoverSpec;
use cyclecover_solver::lower_bound::rho_formula;
use cyclecover_solver::TileUniverse;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed passes a run makes even when its time is up sooner.
const MIN_PASSES: usize = 3;

/// Which tile universe an instance searches.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Every tile (`max_len = n`, any gap).
    Full,
    /// At most 4 vertices, every gap at most `n/2`: the shortest-gap
    /// universe of the capacity-tight witnesses.
    ShortC4,
}

/// One exact solve of the ladder.
#[derive(Clone, Copy)]
struct Instance {
    name: &'static str,
    n: u32,
    lambda: u32,
    shape: Shape,
    engine: &'static str,
    objective: Objective,
    symmetry: SymmetryMode,
    memo: bool,
    max_nodes: u64,
    /// Inconclusive at its cap today. An exhausted answer is accepted;
    /// a verdict, should one appear, is still checked.
    capped: bool,
}

const BASE: Instance = Instance {
    name: "",
    n: 0,
    lambda: 1,
    shape: Shape::Full,
    engine: "bitset",
    objective: Objective::FindOptimal,
    symmetry: SymmetryMode::Root,
    memo: true,
    max_nodes: 0,
    capped: false,
};

/// The two ladders.
#[derive(Clone, Copy)]
pub enum Ladder {
    /// Unit covers: `ρ(n)` on the default route and on the partition
    /// engine's C ≤ 4 universes.
    Unit,
    /// λ-fold covers: the lane core, the λ partition route and the
    /// recursive MultiKernel.
    Lambda,
}

fn instances(ladder: Ladder) -> Vec<Instance> {
    use Objective::WithinBudget;
    use SymmetryMode::{Full, Off};
    let part = |name, n, max_nodes| Instance {
        name,
        n,
        shape: Shape::ShortC4,
        engine: "partition",
        symmetry: Full,
        max_nodes,
        ..BASE
    };
    match ladder {
        Ladder::Unit => vec![
            Instance {
                name: "rho10-root",
                n: 10,
                max_nodes: 2_000_000,
                ..BASE
            },
            Instance {
                name: "rho10-full",
                n: 10,
                symmetry: Full,
                max_nodes: 2_000_000,
                ..BASE
            },
            Instance {
                name: "rho12",
                n: 12,
                max_nodes: 1_000_000,
                ..BASE
            },
            Instance {
                name: "rho8-core",
                n: 8,
                symmetry: Off,
                memo: false,
                max_nodes: 1_000_000,
                ..BASE
            },
            Instance {
                name: "rho13",
                n: 13,
                max_nodes: 1_000_000,
                ..BASE
            },
            Instance {
                name: "rho15",
                n: 15,
                max_nodes: 1_000_000,
                ..BASE
            },
            Instance {
                name: "rho17",
                n: 17,
                max_nodes: 1_000_000,
                ..BASE
            },
            Instance {
                name: "probe14",
                n: 14,
                max_nodes: 200_000,
                capped: true,
                ..BASE
            },
            Instance {
                name: "probe16",
                n: 16,
                max_nodes: 20_000,
                capped: true,
                ..BASE
            },
            part("part14", 14, 1_000_000),
            Instance {
                objective: WithinBudget(33),
                ..part("part16-33", 16, 1_000_000)
            },
            part("part18", 18, 2_000_000),
            Instance {
                capped: true,
                ..part("part22", 22, 300_000)
            },
        ],
        Ladder::Lambda => {
            let fold = |name, n, lambda| Instance {
                name,
                n,
                lambda,
                max_nodes: 1_000_000,
                ..BASE
            };
            vec![
                fold("rho2-8-root", 8, 2),
                Instance {
                    symmetry: Off,
                    ..fold("rho2-8-off", 8, 2)
                },
                fold("rho3-6", 6, 3),
                Instance {
                    objective: WithinBudget(17),
                    ..fold("lam2-8-b17", 8, 2)
                },
                Instance {
                    max_nodes: 300_000,
                    capped: true,
                    ..fold("lam3-8", 8, 3)
                },
                Instance {
                    max_nodes: 100_000,
                    capped: true,
                    ..fold("lam2-10", 10, 2)
                },
                Instance {
                    max_nodes: 10_000_000,
                    ..fold("rho4-6", 6, 4)
                },
            ]
        }
    }
}

impl Instance {
    fn universe_key(&self) -> (u32, usize, u32) {
        match self.shape {
            Shape::Full => (self.n, self.n as usize, self.n),
            Shape::ShortC4 => (self.n, 4, self.n / 2),
        }
    }

    fn request(&self) -> SolveRequest {
        SolveRequest::new(self.objective)
            .with_symmetry(self.symmetry)
            .with_memo(self.memo)
            .with_max_nodes(self.max_nodes)
    }

    /// The certified optimum: `ρ(n)` for unit covers, `⌈λ·Σd(e)/n⌉` for
    /// λ-fold covers.
    fn optimum(&self) -> u64 {
        if self.lambda == 1 {
            rho_formula(self.n)
        } else {
            lambda::capacity_lower_bound(self.n, self.lambda)
        }
    }

    /// Checks one answer; `Ok(true)` for a verdict, `Ok(false)` for an
    /// accepted exhaustion.
    fn check(&self, sol: &Solution) -> Result<bool, String> {
        let fail = |what: String| Err(format!("{}: {what}", self.name));
        match (self.objective, sol.optimality()) {
            (
                _,
                Optimality::BudgetExhausted {
                    reason: Exhaustion::NodeBudget,
                },
            ) if self.capped => return Ok(false),
            (Objective::FindOptimal, Optimality::Optimal { .. }) => {
                if sol.size() != Some(self.optimum() as usize) {
                    return fail(format!(
                        "optimum {:?}, expected {}",
                        sol.size(),
                        self.optimum()
                    ));
                }
            }
            (Objective::WithinBudget(b), Optimality::Feasible) => {
                if sol.size().is_none_or(|s| s > b as usize) {
                    return fail(format!("{:?} cycles within budget {b}", sol.size()));
                }
            }
            (_, verdict) => return fail(format!("unexpected verdict {verdict:?}")),
        }
        let ring = Ring::new(self.n);
        let tiles = sol.covering().unwrap_or_default().to_vec();
        if self.shape == Shape::ShortC4
            && tiles
                .iter()
                .any(|t| t.len() > 4 || t.gaps(ring).iter().any(|&g| g > self.n / 2))
        {
            return fail("covering leaves its universe".into());
        }
        let covering = DrcCovering::from_tiles(ring, tiles);
        let valid = if self.lambda == 1 {
            covering.validate().map_err(|e| e.to_string())
        } else if covering.coverage().covers_complete(self.lambda) {
            Ok(())
        } else {
            Err(format!("not a {}-fold cover", self.lambda))
        };
        match valid {
            Ok(()) => Ok(true),
            Err(e) => fail(format!("invalid covering: {e}")),
        }
    }
}

/// The ladder's universes and problems, built by one set-up.
struct Prepared {
    problems: Vec<Problem>,
    tiles: u64,
    bytes: usize,
    enumerate: Duration,
}

/// Enumerates every distinct universe once (spans wrap each
/// `TileUniverse::with_max_gap`) and builds each instance's problem on it.
fn prepare(ladder: &[Instance], tracer: &mut Tracer, parent: Option<usize>) -> Prepared {
    let mut universes: Vec<((u32, usize, u32), Arc<TileUniverse>)> = Vec::new();
    let mut enumerate = Duration::ZERO;
    let mut problems = Vec::with_capacity(ladder.len());
    for inst in ladder {
        let key = inst.universe_key();
        let universe = match universes.iter().find(|(k, _)| *k == key) {
            Some((_, u)) => Arc::clone(u),
            None => {
                let t = Instant::now();
                let u = Arc::new(TileUniverse::with_max_gap(Ring::new(key.0), key.1, key.2));
                let end = Instant::now();
                enumerate += end - t;
                let tag = format!("n={} max_len={} max_gap={}", key.0, key.1, key.2);
                tracer.span("tiles.with_max_gap", parent, 0, tag, t, end);
                universes.push((key, Arc::clone(&u)));
                u
            }
        };
        let spec = if inst.lambda == 1 {
            CoverSpec::complete(inst.n)
        } else {
            CoverSpec::lambda_fold(inst.n, inst.lambda)
        };
        problems.push(Problem::shared(universe, spec));
    }
    Prepared {
        problems,
        tiles: universes.iter().map(|(_, u)| u.len() as u64).sum(),
        bytes: universes.iter().map(|(_, u)| u.approx_bytes()).sum(),
        enumerate,
    }
}

/// One timed solve.
struct Solved {
    /// Wall time.
    latency: Duration,
    /// Time the host let the solve run ([`host::Stopwatch`]).
    busy: Duration,
    solution: Solution,
}

fn solve(inst: &Instance, problem: &Problem) -> Solved {
    let engine = engine_by_name(inst.engine).expect("ladder engines are registered");
    let request = inst.request();
    let t = Instant::now();
    let busy = host::Stopwatch::start();
    let solution = engine.solve(problem, &request);
    Solved {
        busy: busy.elapsed(),
        latency: t.elapsed(),
        solution,
    }
}

/// Runs a certify workload.
pub fn run(ladder: Ladder, cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let ladder = instances(ladder);
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut nodes_of: Vec<Option<u64>> = vec![None; ladder.len()];
    let mut check = |i: usize, s: &Solved, out: &mut Outcome| -> bool {
        out.attempted += 1;
        let nodes = s.solution.stats().nodes;
        if *nodes_of[i].get_or_insert(nodes) != nodes {
            out.failed += 1;
            out.violation(format!(
                "{}: {nodes} nodes, earlier passes {}",
                ladder[i].name,
                nodes_of[i].unwrap_or(0)
            ));
            return false;
        }
        match ladder[i].check(&s.solution) {
            Ok(conclusive) => conclusive,
            Err(e) => {
                out.failed += 1;
                out.violation(e);
                false
            }
        }
    };

    // Set-up: enumeration plus the cold pass, on fresh universes each time.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut enumerate_ms = Vec::with_capacity(SETUP_REPS);
    let mut cold_ms: Vec<Vec<f64>> = vec![Vec::new(); ladder.len()];
    let mut routes = vec![Route::None; ladder.len()];
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        drop(prepared.take());
        let t = Instant::now();
        let root = tracer.span("setup", None, 0, format!("rep {rep}"), t, t);
        let p = prepare(&ladder, tracer, root);
        for (i, inst) in ladder.iter().enumerate() {
            let s = solve(inst, &p.problems[i]);
            let end = Instant::now();
            routes[i] = route(inst, &s.solution);
            let tag = format!("{} cold {}", inst.name, routes[i].tag());
            tracer.span("api.solve", root, i as u64, tag, end - s.latency, end);
            cold_ms[i].push(ms(s.latency));
            check(i, &s, &mut out);
        }
        tracer.close(root, Instant::now());
        setups.push(t.elapsed().as_secs_f64());
        enumerate_ms.push(ms(p.enumerate));
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");

    // Timed phase: whole passes over the warm instances.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..ladder.len()).collect();
    let mut reference = host::Reference::new();
    // Warm-solve wall and busy times per instance.
    let mut warm_ms: Vec<Vec<f64>> = vec![Vec::new(); ladder.len()];
    let mut busy_ms: Vec<Vec<f64>> = vec![Vec::new(); ladder.len()];
    let mut solves = 0usize;
    // Summed busy solve times of every pass, and pass times split by whether
    // the pass was traced.
    let mut all_passes = Vec::new();
    let mut pass_s = Vec::new();
    let mut traced_pass_s = Vec::new();
    let mut conclusive = 0u64;
    let mut kernel = KernelTotals::default();
    let timed = Instant::now();
    let traced = tracer.enabled;
    while all_passes.len() < MIN_PASSES || timed.elapsed() < cfg.seconds {
        // A traced run alternates traced and untraced passes, so it can
        // report its own tracing overhead.
        let pass_no = all_passes.len();
        tracer.enabled = traced && pass_no % 2 == 0;
        order.shuffle(&mut rng);
        let t = Instant::now();
        let pass = tracer.span("pass", None, 0, format!("pass {pass_no}"), t, t);
        let mut solving = Duration::ZERO;
        for &i in &order {
            let inst = &ladder[i];
            reference.measure();
            let s = solve(inst, &p.problems[i]);
            solving += s.busy;
            let end = Instant::now();
            let route = route(inst, &s.solution);
            tracer.span(
                "api.solve",
                pass,
                i as u64,
                format!("{} warm {}", inst.name, route.tag()),
                end - s.latency,
                end,
            );
            warm_ms[i].push(ms(s.latency));
            busy_ms[i].push(ms(s.busy));
            solves += 1;
            conclusive += u64::from(check(i, &s, &mut out));
            kernel.absorb(
                inst.lambda,
                inst.memo,
                s.solution.stats(),
                s.solution.optimality(),
            );
        }
        tracer.close(pass, Instant::now());
        if tracer.enabled {
            &mut traced_pass_s
        } else {
            &mut pass_s
        }
        .push(t.elapsed().as_secs_f64());
        all_passes.push(solving.as_secs_f64());
    }
    tracer.enabled = traced;
    let passes = all_passes.len() as f64;
    let typical: Vec<f64> = warm_ms.iter().map(|v| stats::mean(v)).collect();
    // Every timed figure is busy time scaled to the nominal host (the
    // tracing overhead compares raw pass times).
    let host_factor = reference.factor();
    let (search_ms, walk_ms) = reference.medians();
    let scaled_typical: Vec<f64> = busy_ms
        .iter()
        .map(|v| stats::mean(v) * host_factor)
        .collect();

    out.set("setup_s", stats::median(&setups));
    out.set("wall_s", stats::mean(&all_passes) * host_factor);
    out.set(
        "jobs_per_s",
        solves as f64 / (all_passes.iter().sum::<f64>() * host_factor),
    );
    // A ladder has no request stream: its percentiles run over the
    // instances' mean warm-solve times (the typical and the slowest
    // certification), so each rests on every pass of an instance rather
    // than on the few pooled solves in a tail.
    out.set("latency_p50_ms", stats::median(&scaled_typical));
    out.set("latency_p99_ms", stats::quantile(&scaled_typical, 0.99));
    out.set("instance_geomean_ms", stats::geomean(&scaled_typical));
    out.set("conclusive_frac", conclusive as f64 / solves as f64);
    out.set(
        "validated_frac",
        (out.attempted - out.failed) as f64 / out.attempted as f64,
    );

    // Per-layer figures (reported by traced runs; cheap to compute always).
    out.set("tiles.enumerate_ms", stats::median(&enumerate_ms));
    let lazy: f64 = cold_ms
        .iter()
        .zip(&typical)
        .map(|(cold, warm)| (stats::median(cold) - warm).max(0.0))
        .sum();
    out.set("tiles.lazy_ms", lazy);
    out.set("tiles.count", p.tiles as f64);
    out.set("tiles.universe_mb", p.bytes as f64 / f64::from(1 << 20));
    out.set("host.search_us", search_ms * 1e3);
    out.set("host.walk_us", walk_ms * 1e3);
    kernel.write(passes, &mut out);
    out.set(
        "trace.overhead_frac",
        stats::ratio(stats::mean(&traced_pass_s), stats::mean(&pass_s)) - 1.0,
    );
    crate::serve::zero_serving_layers(&mut out);

    eprintln!(
        "{} instances, {} set-ups, {} timed passes ({} solves) in {:.1} s",
        ladder.len(),
        SETUP_REPS,
        passes,
        solves,
        started.elapsed().as_secs_f64()
    );
    eprintln!(
        "host references: search {:.1} us, walk {:.1} us (nominal {:.1}, {:.1}); times scaled by {:.4}",
        search_ms * 1e3,
        walk_ms * 1e3,
        host::NOMINAL_SEARCH.as_secs_f64() * 1e6,
        host::NOMINAL_WALK.as_secs_f64() * 1e6,
        host_factor
    );
    eprintln!(
        "  {:<12} {:>9} {:>12} {:>10} {:>10} {:>10}",
        "instance", "route", "nodes", "cold_ms", "warm_ms", "scaled_ms"
    );
    for (i, inst) in ladder.iter().enumerate() {
        eprintln!(
            "  {:<12} {:>9} {:>12} {:>10.2} {:>10.3} {:>10.3}",
            inst.name,
            routes[i].tag(),
            nodes_of[i].unwrap_or(0),
            stats::median(&cold_ms[i]),
            typical[i],
            scaled_typical[i]
        );
    }
    out
}

fn route(inst: &Instance, sol: &Solution) -> Route {
    Route::of(inst.lambda, sol.stats())
}
