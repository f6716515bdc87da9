//! `serve`: an in-process `embd` server on loopback, driven open-loop over
//! one connection.
//!
//! One thread sends requests on schedule and one thread reads the replies
//! in FIFO order; each request is timed from when it was due, so a stall
//! charges every request queued behind it. The mix:
//!
//! * ~90% `MAP` on the six `embd-bench` paper pairs (registry hits);
//! * ~8% `MAP` on pairs drawn without replacement from a seeded pool of
//!   planner-supported pairs (`explab::plan::Family::pairs` of the `report`
//!   families): registry misses, each a `Plan::closed_form`, a rebuild and
//!   the write lock. To keep them misses, every segment of a step starts a
//!   fresh server whose registry holds only the hot pairs and the refined
//!   plan, and a segment ends before it would exhaust the pool;
//! * ~2% `PLAN` for `torus:16x16x16 → mesh:64x64`, refined at set-up with
//!   `PlanRegistry::refine`: a table-backed reply frame of tens of KB.
//!
//! Latency (p50, p99) is measured at a nominal rate of about a third of
//! single-connection capacity. Throughput is the highest rate meeting
//! p99 ≤ 500 µs with no failed request, found on a fixed rate ladder and
//! interpolated on log p99 between the last step that met the limit and
//! the first that did not. Every reply is checked: `MAP` answers against a
//! direct `auto::embed` table, `PLAN` replies against the refined plan's
//! text (which must parse with `Plan::parse` and rebuild to the refined
//! table). `ERR` replies, wrong answers and replies still missing 2 s after
//! a step ends count as failed, and as missing the latency limit.

use std::collections::HashSet;
use std::io::{BufReader, BufWriter, ErrorKind};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use embd::proto::{parse_response, read_frame, write_frame, Request};
use embd::{EmbdError, PlanRegistry, RegistryStats};
use embeddings::auto::embed;
use embeddings::plan::{parse_grid_spec, Plan};
use explab::plan::{Family, SweepPlan};
use topology::parallel::splitmix64;
use topology::Grid;

use crate::cores;
use crate::report::{Config, Outcome, SetupTimer};
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Tracer};

/// The `embd-bench` paper pairs: the hot, cached part of the mix.
const HOT_PAIRS: [(&str, &str); 6] = [
    ("torus:4x2x3", "mesh:4x6"),
    ("mesh:4x6", "torus:4x2x3"),
    ("torus:8x8", "mesh:8x8"),
    ("mesh:16x4", "torus:2x2x2x2x2x2"),
    ("torus:6x4", "torus:24"),
    ("mesh:4x3x2", "mesh:12x2"),
];

/// Share of `PLAN` requests, per mille.
const PLAN_PER_MILLE: u64 = 20;
/// Share of cold `MAP` requests, per mille.
const COLD_PER_MILLE: u64 = 80;
/// The latency limit on p99, in µs.
const LIMIT_US: f64 = 500.0;
/// The nominal rate for the latency metrics, in requests per second.
const NOMINAL_QPS: f64 = 10_000.0;
/// The capacity ladder, in requests per second.
const LADDER_QPS: [f64; 14] = [
    20_000.0, 30_000.0, 40_000.0, 50_000.0, 55_000.0, 60_000.0, 65_000.0, 70_000.0, 75_000.0,
    80_000.0, 85_000.0, 90_000.0, 100_000.0, 120_000.0,
];
/// Requests per latency window: each window's p99 has 10 samples beyond
/// it, and a stall of the shared machine spoils only the windows it hits.
const WINDOW: usize = 1_000;
/// Rounds of (nominal slice, ladder climb) per run.
const ROUNDS: usize = 5;
/// How long the reader waits for stragglers after a step's last request.
const DRAIN: Duration = Duration::from_secs(2);

/// A graph pair with its reference table from a direct `auto::embed`.
struct Pair {
    guest: Grid,
    host: Grid,
    table: Vec<u64>,
}

/// Everything the measured steps need.
struct Fixture {
    hot: Vec<Pair>,
    pool: Vec<Pair>,
    /// The refined, table-backed plan every segment's server serves.
    plan: Plan,
    /// The `PLAN` request line and the reply payload it must get.
    plan_line: String,
    plan_text: String,
}

fn grid(spec: &str) -> Result<Grid, String> {
    parse_grid_spec(spec).map_err(|e| format!("{spec}: {e}"))
}

fn plan_pair(tiny: bool) -> Result<(Grid, Grid), String> {
    if tiny {
        Ok((grid("torus:4x4x4")?, grid("mesh:8x8")?))
    } else {
        Ok((grid("torus:16x16x16")?, grid("mesh:64x64")?))
    }
}

fn refine_steps(tiny: bool) -> u64 {
    if tiny {
        500
    } else {
        8_192
    }
}

/// The seeded pool of registry-miss pairs: every pair of the `report`
/// families (`smoke` for tiny runs) the closed-form planner supports,
/// except the hot pairs and the plan pair, deduplicated and shuffled.
fn pool_pairs(cfg: &Config, exclude: &[(Grid, Grid)]) -> Vec<(Grid, Grid)> {
    let families = if cfg.tiny {
        SweepPlan::builtin("smoke")
            .expect("the built-in plans exist")
            .families
    } else {
        vec![
            Family::Paper,
            Family::RingInto {
                max_size: 96,
                max_dim: 3,
            },
            Family::TorusToMesh {
                max_size: 64,
                max_dim: 3,
            },
            Family::SameShape {
                max_size: 96,
                max_dim: 3,
            },
            Family::Hypercube { max_dim: 6 },
            Family::HypercubeTorus { max_dim: 6 },
        ]
    };
    let mut seen: HashSet<(Grid, Grid)> = exclude.iter().cloned().collect();
    let mut pairs: Vec<(Grid, Grid)> = Vec::new();
    for family in &families {
        for (guest, host) in family.pairs(splitmix64(cfg.seed ^ 0x9001)) {
            if Plan::closed_form(&guest, &host).is_ok()
                && seen.insert((guest.clone(), host.clone()))
            {
                pairs.push((guest, host));
            }
        }
    }
    shuffle(&mut pairs, cfg.seed ^ 0x9002);
    pairs
}

/// Fisher–Yates with a splitmix64 stream.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// The timed set-up: spawn a server, refine the plan pair in its registry,
/// and expand the pool.
fn setup(cfg: &Config) -> Result<(Plan, Vec<(Grid, Grid)>), String> {
    let server = embd::spawn("127.0.0.1:0", Arc::new(PlanRegistry::new()))
        .map_err(|e| format!("cannot spawn the server: {e}"))?;
    let (guest, host) = plan_pair(cfg.tiny)?;
    let entry = server
        .registry()
        .refine(&guest, &host, refine_steps(cfg.tiny), cfg.seed)
        .map_err(|e| format!("refine failed: {e}"))?;
    let mut exclude = vec![(guest, host)];
    for (g, h) in HOT_PAIRS {
        exclude.push((grid(g)?, grid(h)?));
    }
    let pool = pool_pairs(cfg, &exclude);
    server.shutdown();
    Ok((entry.plan.clone(), pool))
}

/// Reference tables for every pair, and the refined plan's checked text.
fn fixture(plan: Plan, pool: Vec<(Grid, Grid)>, out: &mut Outcome) -> Result<Fixture, String> {
    let with_table = |guest: Grid, host: Grid| -> Result<Pair, String> {
        let table = embed(&guest, &host)
            .and_then(|e| e.to_table())
            .map_err(|e| format!("reference embed failed: {e}"))?;
        Ok(Pair { guest, host, table })
    };
    let hot = HOT_PAIRS
        .iter()
        .map(|(g, h)| with_table(grid(g)?, grid(h)?))
        .collect::<Result<Vec<_>, _>>()?;
    let pool = pool
        .into_iter()
        .map(|(g, h)| with_table(g, h))
        .collect::<Result<Vec<_>, _>>()?;
    let plan_text = plan.to_text();
    // The text served to PLAN must parse and rebuild to the refined table.
    let parsed = Plan::parse(&plan_text).map_err(|e| format!("served plan text: {e}"))?;
    let rebuilt = parsed
        .to_embedding()
        .and_then(|e| e.to_table().map_err(Into::into))
        .map_err(|e| format!("served plan does not rebuild: {e}"))?;
    out.check(Some(rebuilt.as_slice()) == plan.table(), || {
        "the served plan rebuilds to a different table".to_string()
    });
    let plan_line = Request::Plan {
        guest: plan.guest().clone(),
        host: plan.host().clone(),
    }
    .to_line();
    Ok(Fixture {
        hot,
        pool,
        plan,
        plan_line,
        plan_text,
    })
}

/// What a reply must be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    /// A `MAP` answer; `hot` marks registry hits.
    Index { value: u64, hot: bool },
    /// The refined plan's text.
    Plan,
}

/// The requests of one segment.
fn generate(fx: &Fixture, count: usize, seed: u64, corrupt: bool) -> Vec<(String, Expect)> {
    let mut state = seed;
    let mut next = || {
        state = splitmix64(state);
        state
    };
    let mut order: Vec<usize> = (0..fx.pool.len()).collect();
    shuffle(&mut order, next());
    let mut cold = 0usize;
    (0..count)
        .map(|_| {
            let r = next() % 1000;
            if r < PLAN_PER_MILLE {
                return (fx.plan_line.clone(), Expect::Plan);
            }
            let (pair, hot) = if r < PLAN_PER_MILLE + COLD_PER_MILLE && !fx.pool.is_empty() {
                cold += 1;
                (&fx.pool[order[(cold - 1) % order.len()]], false)
            } else {
                (&fx.hot[(next() % fx.hot.len() as u64) as usize], true)
            };
            let v = next() % pair.guest.size();
            let line = Request::Map {
                v,
                guest: pair.guest.clone(),
                host: pair.host.clone(),
            }
            .to_line();
            let value = pair.table[v as usize] ^ u64::from(corrupt && hot);
            (line, Expect::Index { value, hot })
        })
        .collect()
}

/// One request's fate.
#[derive(Clone, Copy, Debug)]
struct Timing {
    /// From due time to reply, in µs; infinite when the request failed.
    latency_us: f64,
    /// From send to reply, in µs (the generator's lateness excluded).
    service_us: f64,
    /// How late the generator sent it, in µs.
    late_us: f64,
    expect: Expect,
}

/// The results of one segment (or of several, merged).
#[derive(Default)]
struct Step {
    timings: Vec<Timing>,
    errors: u64,
    wrong: u64,
    missing: u64,
    /// Requests sent but not answered when the last one was sent.
    backlog: u64,
    stats: Option<RegistryStats>,
    /// The median latency of each segment.
    segment_p50: Vec<f64>,
}

impl Step {
    fn merge(&mut self, other: Step) {
        self.timings.extend(other.timings);
        self.segment_p50.extend(other.segment_p50);
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.missing += other.missing;
        self.backlog = self.backlog.max(other.backlog);
        self.stats = match (self.stats, other.stats) {
            (Some(a), Some(b)) => Some(RegistryStats {
                plans: a.plans.max(b.plans),
                hits: a.hits + b.hits,
                misses: a.misses + b.misses,
            }),
            (a, b) => a.or(b),
        };
    }

    fn failed(&self) -> u64 {
        self.errors + self.wrong + self.missing
    }

    /// Percentile `p` of the latencies of each window of [`WINDOW`]
    /// consecutive requests (a trailing part-window is dropped unless it is
    /// the only one).
    fn window_percentiles(&self, p: f64) -> Vec<f64> {
        let windows: Vec<&[Timing]> = self.timings.chunks(WINDOW).collect();
        let keep = windows.len().saturating_sub(1).max(1);
        windows
            .iter()
            .take(keep)
            .map(|window| {
                let mut values: Vec<f64> = window.iter().map(|t| t.latency_us).collect();
                values.sort_by(f64::total_cmp);
                percentile(&values, p)
            })
            .collect()
    }

    /// The tail latency of a step: the first quartile, over its windows, of
    /// each window's p99. Stalls of a shared machine (other tenants, the
    /// hypervisor) hit some windows and not others; the first quartile
    /// reports the tail the program itself produces.
    fn tail_p99(&self) -> f64 {
        let mut windows = self.window_percentiles(99.0);
        windows.sort_by(f64::total_cmp);
        percentile(&windows, 25.0)
    }

    fn sorted_latencies(&self) -> Vec<f64> {
        let mut values: Vec<f64> = self.timings.iter().map(|t| t.latency_us).collect();
        values.extend(std::iter::repeat_n(f64::INFINITY, self.missing as usize));
        values.sort_by(f64::total_cmp);
        values
    }
}

/// Lowers this thread's timer slack to 1 ns so `sleep` wakes close to the
/// due time (the default slack is 50 µs, half a nominal interval).
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    unsafe extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

fn is_timeout(error: &EmbdError) -> bool {
    matches!(error, EmbdError::Io(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut))
}

/// A request in flight: its index, when it was due and when it was sent.
struct Pending {
    index: usize,
    due: Instant,
    sent: Instant,
}

/// Runs one segment: a fresh server, one connection, `requests` sent at
/// `rate` per second.
fn segment(
    fx: &Fixture,
    requests: &[(String, Expect)],
    rate: f64,
    turn: usize,
    trace: Option<(&Tracer, SpanId)>,
) -> Result<Step, String> {
    let registry = Arc::new(PlanRegistry::new());
    registry
        .insert(fx.plan.clone())
        .map_err(|e| format!("cannot insert the refined plan: {e}"))?;
    for pair in &fx.hot {
        registry
            .get_or_build(&pair.guest, &pair.host)
            .map_err(|e| format!("cannot warm a hot pair: {e}"))?;
    }
    // The server's threads inherit the core the spawning thread is on; the
    // client then moves to the other one. The roles swap every segment.
    let _unpin = cores::Unpin;
    cores::pin_to(turn + 1);
    let server = embd::spawn("127.0.0.1:0", registry).map_err(|e| e.to_string())?;
    cores::pin_to(turn);
    let stream = TcpStream::connect(server.addr()).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    read_half
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| e.to_string())?;
    let mut writer = BufWriter::new(stream);
    let mut reader = BufReader::new(read_half);

    let interval = 1.0 / rate;
    let start = Instant::now() + Duration::from_millis(2);
    let deadline = start + Duration::from_secs_f64(requests.len() as f64 * interval) + DRAIN;
    let (tx, rx) = mpsc::channel::<Pending>();
    let mut step = Step::default();
    let mut late = vec![0f64; requests.len()];
    let received = AtomicU64::new(0);

    let reader_result = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(|| {
            let mut replies: Vec<(Pending, Instant, Result<String, EmbdError>)> =
                Vec::with_capacity(requests.len());
            'pending: for pending in rx {
                loop {
                    match read_frame(&mut reader) {
                        Ok(Some(reply)) => {
                            let now = Instant::now();
                            received.fetch_add(1, Ordering::Relaxed);
                            replies.push((pending, now, parse_response(&reply)));
                            continue 'pending;
                        }
                        Err(e) if is_timeout(&e) && Instant::now() < deadline => continue,
                        _ => break 'pending,
                    }
                }
            }
            replies
        });
        tighten_timer_slack();
        let mut sent = 0u64;
        for (index, (line, _)) in requests.iter().enumerate() {
            let due = start + Duration::from_secs_f64(index as f64 * interval);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent_at = Instant::now();
            late[index] = sent_at.saturating_duration_since(due).as_secs_f64() * 1e6;
            if tx
                .send(Pending {
                    index,
                    due,
                    sent: sent_at,
                })
                .is_err()
                || write_frame(&mut writer, line).is_err()
            {
                break;
            }
            sent += 1;
        }
        step.backlog = sent - received.load(Ordering::Relaxed);
        drop(tx);
        let replies = reader_thread.join().expect("reader thread");
        (sent, replies)
    });
    let (sent, replies) = reader_result;
    step.missing = sent - replies.len() as u64;
    for (pending, at, reply) in replies {
        let expect = requests[pending.index].1;
        let ok = match (&reply, expect) {
            (Ok(payload), Expect::Index { value, .. }) => payload.parse::<u64>() == Ok(value),
            (Ok(payload), Expect::Plan) => *payload == fx.plan_text,
            (Err(_), _) => false,
        };
        if reply.is_err() {
            step.errors += 1;
        } else if !ok {
            step.wrong += 1;
        }
        let latency_us = at.duration_since(pending.due).as_secs_f64() * 1e6;
        step.timings.push(Timing {
            latency_us: if ok { latency_us } else { f64::INFINITY },
            service_us: at.duration_since(pending.sent).as_secs_f64() * 1e6,
            late_us: late[pending.index],
            expect,
        });
        if let Some((tracer, parent)) = trace {
            tracer.record(
                "serve.request",
                pending.due,
                at,
                Some(parent),
                pending.index as u64,
            );
        }
    }
    step.segment_p50
        .push(percentile(&step.sorted_latencies(), 50.0));
    if step.missing == 0 {
        step.stats = write_frame(&mut writer, "STATS")
            .ok()
            .and_then(|()| read_frame(&mut reader).ok().flatten())
            .and_then(|reply| parse_response(&reply).ok())
            .and_then(|payload| parse_stats(&payload));
    }
    drop((writer, reader));
    server.shutdown();
    Ok(step)
}

fn parse_stats(payload: &str) -> Option<RegistryStats> {
    let mut fields = payload.split(' ');
    let mut field = |prefix: &str| {
        fields
            .next()
            .and_then(|f| f.strip_prefix(prefix))
            .and_then(|v| v.parse().ok())
    };
    Some(RegistryStats {
        plans: field("plans=")?,
        hits: field("hits=")?,
        misses: field("misses=")?,
    })
}

/// Runs `seconds` of requests at `rate`, as segments short enough that
/// every cold request is a registry miss. Segment `i` places the server
/// and the client by `turn + i` (see `segment`).
fn run_step(
    fx: &Fixture,
    rate: f64,
    seconds: f64,
    seed: u64,
    turn: usize,
    cfg: &Config,
    trace: Option<(&Tracer, SpanId)>,
) -> Result<Step, String> {
    let cold_per_s = rate * COLD_PER_MILLE as f64 / 1000.0;
    let segment_s = (0.8 * fx.pool.len().max(1) as f64 / cold_per_s).min(seconds);
    let mut step = Step::default();
    let mut done = 0.0;
    let mut index = 0u64;
    while done < seconds * 0.999 {
        let length = segment_s.min(seconds - done);
        let count = ((rate * length).round() as usize).max(1);
        let requests = generate(fx, count, splitmix64(seed ^ index), cfg.corrupt_reference);
        step.merge(segment(fx, &requests, rate, turn + index as usize, trace)?);
        done += length;
        index += 1;
    }
    Ok(step)
}

/// The highest rate meeting the limit: the crossing of `LIMIT_US`,
/// interpolated on log p99, between the highest ladder step that met the
/// limit and the step above it.
fn capacity(ladder: &[(f64, f64, bool)]) -> f64 {
    let Some(ok) = ladder.iter().rposition(|&(_, _, ok)| ok) else {
        // Even the lowest step missed the limit: scale its rate down.
        let (rate, p99, _) = ladder[0];
        return rate * LIMIT_US / p99.max(LIMIT_US);
    };
    let Some(&(next_rate, next_p99, _)) = ladder.get(ok + 1) else {
        return ladder[ok].0;
    };
    let (rate, p99, _) = ladder[ok];
    if !(next_p99.is_finite() && next_p99 > p99) {
        return rate;
    }
    let fraction = ((LIMIT_US / p99).ln() / (next_p99 / p99).ln()).clamp(0.0, 1.0);
    rate + (next_rate - rate) * fraction
}

/// Records a step's failures and correctness failures.
fn account(step: &Step, what: &str, out: &mut Outcome) {
    out.attempted += step.timings.len() as u64 + step.missing;
    out.failed += step.failed();
    out.check(step.wrong == 0, || {
        format!("{what}: {} replies differ from the reference", step.wrong)
    });
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let _unpin = cores::Unpin;
    let mut setup_timer = SetupTimer::new(cfg);
    let mut turn = 0;
    let (plan, pool) = setup_timer.batch(3, || {
        cores::rotate(&mut turn);
        setup(cfg)
    })?;
    let fx = fixture(plan, pool, &mut out)?;

    // Rounds of a slice at the nominal rate and a climb of the ladder, then
    // a set-up batch. Interference from other tenants only slows the
    // service down, and comes in spells of seconds: a rate's p99 is its
    // best round's, and the latency is the best nominal segment's median.
    let mut nominal = Step::default();
    let mut best: Vec<Option<(f64, bool)>> = vec![None; LADDER_QPS.len()];
    for round in 0..ROUNDS {
        let slice = run_step(
            &fx,
            NOMINAL_QPS,
            0.35 * cfg.seconds / ROUNDS as f64,
            splitmix64(cfg.seed ^ round as u64),
            round,
            cfg,
            None,
        )?;
        account(&slice, "nominal rate", &mut out);
        nominal.merge(slice);

        // Climb until three steps in a row miss the limit.
        let mut misses = 0;
        for (index, &rate) in LADDER_QPS.iter().enumerate() {
            if misses == 3 {
                break;
            }
            let step = run_step(
                &fx,
                rate,
                0.04 * cfg.seconds / ROUNDS as f64,
                splitmix64(cfg.seed ^ 0x1add_e500 ^ (round * 64 + index) as u64),
                round + index,
                cfg,
                None,
            )?;
            account(&step, "ladder", &mut out);
            let p99 = step.tail_p99();
            let ok = p99 <= LIMIT_US && step.failed() == 0;
            misses = if ok { 0 } else { misses + 1 };
            best[index] = Some(match best[index] {
                Some((best_p99, best_ok)) => (best_p99.min(p99), best_ok || ok),
                None => (p99, ok),
            });
        }
        setup_timer.batch(1, || {
            cores::rotate(&mut turn);
            setup(cfg)
        })?;
    }
    let ladder: Vec<(f64, f64, bool)> = LADDER_QPS
        .iter()
        .zip(&best)
        .map_while(|(&rate, best)| best.map(|(p99, ok)| (rate, p99, ok)))
        .collect();
    let capacity = capacity(&ladder);
    let ladder_p99: Vec<f64> = ladder.iter().map(|&(_, p99, _)| p99).collect();

    let latencies = nominal.sorted_latencies();
    let late: Vec<f64> = nominal.timings.iter().map(|t| t.late_us).collect();
    let mut late_sorted = late.clone();
    late_sorted.sort_by(f64::total_cmp);
    out.metric("setup_s", median(setup_timer.times()), "s");
    out.metric("throughput_per_s", capacity, "1/s");
    out.metric(
        "latency_us",
        nominal.segment_p50.iter().copied().fold(f64::NAN, f64::min),
        "us",
    );
    out.figure("segment_p50_us", "us", &nominal.segment_p50);
    out.figure("setup_s", "s", setup_timer.times());
    let finite: Vec<f64> = latencies
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect();
    out.figure("map_latency_us", "us", &finite);
    out.figure("map_p50_us", "us", &[percentile(&latencies, 50.0)]);
    out.figure("map_p99_us", "us", &[nominal.tail_p99()]);
    out.figure("map_window_p99_us", "us", &nominal.window_percentiles(99.0));
    out.figure("map_overall_p99_us", "us", &[percentile(&latencies, 99.0)]);
    out.figure("serve_max_qps", "q/s", &[capacity]);
    out.figure("generator_late_us", "us", &late);
    out.figure(
        "generator_late_p99_us",
        "us",
        &[percentile(&late_sorted, 99.0)],
    );
    out.figure("ladder_p99_us", "us", &ladder_p99);
    for (kind, wanted) in [
        ("hot_map", Some(true)),
        ("cold_map", Some(false)),
        ("plan", None),
    ] {
        let mut values: Vec<f64> = nominal
            .timings
            .iter()
            .filter(|t| match t.expect {
                Expect::Index { hot, .. } => Some(hot) == wanted,
                Expect::Plan => wanted.is_none(),
            })
            .map(|t| t.latency_us)
            .collect();
        values.sort_by(f64::total_cmp);
        out.figure(
            &format!("{kind}_p99_us"),
            "us",
            &[percentile(&values, 99.0)],
        );
        out.figure(&format!("{kind}_latency_us"), "us", &values);
    }
    out.figure(
        "failed_ratio",
        "ratio",
        &[out.failed as f64 / out.attempted.max(1) as f64],
    );
    out.count("serve.pool_pairs", fx.pool.len() as u64);
    out.count(
        "serve.nominal_requests",
        nominal.timings.len() as u64 + nominal.missing,
    );
    Ok(out)
}

/// Mean seconds per call of `f` over `calls` calls.
fn mean_call_s(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        f(i);
    }
    start.elapsed().as_secs_f64() / calls.max(1) as f64
}

/// The traced run: per-layer metrics of embd.
///
/// A traced step at the nominal rate records a span per request (from due
/// time to reply); the server's stages are then timed by calling the same
/// public functions in-process on the same request lines: `Request::parse`,
/// `write_frame` + `read_frame` on an in-memory buffer, a registry hit, an
/// `Embedding::try_map_index` and a registry miss. `embd.wire_us` is the
/// client's mean service time for hot `MAP`s minus those stages: sockets,
/// wakeups and the server loop.
pub fn profile(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (plan, pool) = setup(cfg)?;
    let fx = fixture(plan, pool, &mut out)?;
    let seconds = (cfg.seconds * 0.4).max(0.2);

    let untraced = run_step(
        &fx,
        NOMINAL_QPS,
        seconds,
        splitmix64(cfg.seed),
        0,
        cfg,
        None,
    )?;
    account(&untraced, "untraced step", &mut out);
    let traced = tracer.span("serve.step", None, 0, |root| {
        run_step(
            &fx,
            NOMINAL_QPS,
            seconds,
            splitmix64(cfg.seed),
            0,
            cfg,
            Some((tracer, root)),
        )
    })?;
    account(&traced, "traced step", &mut out);
    let mean = |step: &Step| {
        let finite: Vec<f64> = step
            .timings
            .iter()
            .map(|t| t.latency_us)
            .filter(|l| l.is_finite())
            .collect();
        finite.iter().sum::<f64>() / finite.len().max(1) as f64
    };
    out.metric(
        "serve.trace.overhead_ratio",
        (mean(&traced) - mean(&untraced)) / mean(&untraced),
        "ratio",
    );
    let mut late: Vec<f64> = untraced.timings.iter().map(|t| t.late_us).collect();
    late.sort_by(f64::total_cmp);
    out.metric("serve.gen_late_p99_us", percentile(&late, 99.0), "us");
    out.metric("serve.backlog", untraced.backlog as f64, "requests");
    let stats = untraced.stats.unwrap_or(RegistryStats {
        plans: 0,
        hits: 0,
        misses: 0,
    });
    out.metric(
        "embd.registry.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
    );

    // The server's stages, in-process on the same request lines.
    let requests = generate(&fx, 20_000, splitmix64(cfg.seed ^ 0x5e), false);
    let hot: Vec<&(String, Expect)> = requests
        .iter()
        .filter(|(_, e)| matches!(e, Expect::Index { hot: true, .. }))
        .collect();
    let parse_s = mean_call_s(hot.len(), |i| {
        std::hint::black_box(Request::parse(&hot[i].0).ok());
    });
    let frame_s = mean_call_s(hot.len(), |i| {
        let mut buffer = Vec::with_capacity(128);
        let _ = write_frame(&mut buffer, &hot[i].0);
        let _ = write_frame(&mut buffer, "OK 1234");
        let mut cursor = std::io::Cursor::new(buffer);
        std::hint::black_box(read_frame(&mut cursor).ok());
        std::hint::black_box(read_frame(&mut cursor).ok());
    });
    let registry = PlanRegistry::new();
    let parsed: Vec<(Grid, Grid, u64)> = hot
        .iter()
        .filter_map(|(line, _)| match Request::parse(line) {
            Ok(Request::Map { v, guest, host }) => Some((guest, host, v)),
            _ => None,
        })
        .collect();
    for (guest, host, _) in &parsed {
        registry
            .get_or_build(guest, host)
            .map_err(|e| e.to_string())?;
    }
    let hit_s = mean_call_s(parsed.len(), |i| {
        std::hint::black_box(registry.get_or_build(&parsed[i].0, &parsed[i].1).ok());
    });
    let entries: Vec<_> = parsed
        .iter()
        .map(|(g, h, v)| (registry.get_or_build(g, h).expect("warm entry"), *v))
        .collect();
    let map_s = mean_call_s(entries.len(), |i| {
        std::hint::black_box(entries[i].0.embedding.try_map_index(entries[i].1).ok());
    });
    let fresh = PlanRegistry::new();
    let miss_s = mean_call_s(fx.pool.len(), |i| {
        std::hint::black_box(fresh.get_or_build(&fx.pool[i].guest, &fx.pool[i].host).ok());
    });
    let service: Vec<f64> = untraced
        .timings
        .iter()
        .filter(|t| matches!(t.expect, Expect::Index { hot: true, .. }))
        .map(|t| t.service_us)
        .filter(|s| s.is_finite())
        .collect();
    let service_us = service.iter().sum::<f64>() / service.len().max(1) as f64;
    let stages_us = (parse_s + frame_s + hit_s + map_s) * 1e6;
    out.metric("embd.proto.parse_us", parse_s * 1e6, "us");
    out.metric("embd.proto.frame_us", frame_s * 1e6, "us");
    out.metric("embd.registry.hit_us", hit_s * 1e6, "us");
    out.metric("embd.map_index_ns", map_s * 1e9, "ns");
    out.metric("embd.registry.miss_ms", miss_s * 1e3, "ms");
    out.metric("embd.wire_us", service_us - stages_us, "us");
    out.figure("serve.hot_map_service_us", "us", &service);
    Ok(out)
}
