//! The `service-mix` workload: a child `optimatch serve` over a
//! repository, driven by an open-loop generator that mixes diagnoses of
//! held-out plans with ingests of fresh ones.
//!
//! The generator sends on a seeded fixed-rate schedule from at most
//! `sender_threads` threads, one connection each. Latency runs from a
//! request's due time to the last response byte, so a stall also charges
//! the requests queued behind it; how late the generator itself ran is
//! reported. A refused or failed request counts as a miss that exceeds
//! every latency limit.
//!
//! The load runs in `segments` equal parts, each against a freshly
//! started server on a pristine copy of the repository, so the server
//! starts (set-up and first scan) are spread over the whole run like the
//! requests are, instead of bunching in one moment of a noisy host.

use crate::config::{self, Workload, SCHEDULE_SEED};
use crate::gen::plan_files;
use crate::layers::{self, Counters, ServiceFigures};
use crate::stats::{median, peak_rss_mib, quantile, PoolOrder, SplitMix};
use crate::trace::Tracer;
use crate::{fail, http, Args, BenchError, Outcome, Result};
use optimatch_core::{
    render_scan_json, OpenOptions, OptImatch, ScanOptions, SessionManager, Source, TransformedQep,
};
use optimatch_qep::parse_qep;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A running `optimatch serve` child; killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawn the server and wait until `/healthz` answers 200. Returns
    /// the time from spawn to that answer.
    fn start(bin: &Path, repo: &Path, workers: usize) -> Result<(Server, f64)> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg(repo)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let mut lines = BufReader::new(stdout).lines();
        server.addr = loop {
            let Some(line) = lines.next().transpose()? else {
                return fail("optimatch serve exited before listening");
            };
            if let Some(rest) = line.split("listening on http://").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(r) = http::request(&server.addr, "GET", "/healthz", b"") {
                if r.status == 200 {
                    break;
                }
            }
            if Instant::now() > deadline {
                return fail("optimatch serve never became healthy");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What every server start measures.
#[derive(Debug, Default)]
struct Starts {
    setup: Vec<f64>,
    scan: Vec<f64>,
    /// Peak RSS once the server has answered its first scan.
    rss: Vec<f64>,
}

/// Start a server on a fresh copy of the pristine repository, recording
/// its set-up time, the time of its first `GET /v1/scan` (whose body must
/// equal the reference scan) and its peak RSS after that scan.
fn start_and_scan(
    bin: &Path,
    requests: &Requests,
    repo: &Path,
    reference: &str,
    starts: &mut Starts,
    out: &mut Outcome,
) -> Result<Server> {
    // Flushed before the start, so writeback of the copy does not land
    // in the timed region or behind an ingest's fsync.
    std::fs::copy(requests.pristine, repo)?;
    std::fs::File::open(repo)?.sync_all()?;
    let (server, setup_s) = Server::start(bin, repo, requests.w.workers)?;
    starts.setup.push(setup_s);
    let t0 = Instant::now();
    let r = http::request(&server.addr, "GET", "/v1/scan", b"")?;
    starts.scan.push(t0.elapsed().as_secs_f64());
    starts
        .rss
        .push(peak_rss_mib(&server.child.id().to_string())?);
    out.attempted += 1;
    out.failed += u64::from(r.status != 200);
    out.check(r.status != 200 || r.text() == reference, || {
        "GET /v1/scan differs from a cold scan of the resident plans".to_string()
    });
    Ok(server)
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Diagnose(usize),
    Ingest(usize),
}

/// The seeded schedule: request `i` is due at `i / rate`. Every
/// `ingest_every`-th request, at a seeded phase, ingests the next fresh
/// plan; the rest diagnose the pool in a seeded order, each pool plan as
/// often as the others. Evenly spaced ingests keep a seed from clustering
/// writes, which would make the diagnose tail depend on the seed.
fn schedule(w: &Workload, seed: u64, seconds: f64, pool: usize) -> Vec<Kind> {
    let n = (w.rate_per_s * seconds).round() as usize;
    let mut rng = SplitMix::new(seed.wrapping_add(SCHEDULE_SEED));
    let phase = rng.below(w.ingest_every);
    let mut draws = PoolOrder::new(pool, rng);
    let mut ingests = 0;
    (0..n)
        .map(|i| {
            if i % w.ingest_every == phase && ingests < w.ingest_plans {
                ingests += 1;
                Kind::Ingest(ingests - 1)
            } else {
                Kind::Diagnose(draws.next())
            }
        })
        .collect()
}

/// One completed (or failed) request.
struct Sample {
    index: usize,
    status: u16,
    latency_ms: f64,
    late_ms: f64,
    body: String,
}

/// The load phase's request sequence: sent over HTTP, or replayed
/// in-process through the calls the router makes.
struct Requests<'a> {
    w: &'a Workload,
    plan: &'a [Kind],
    pool: &'a [Plan],
    fresh: &'a [Plan],
    pristine: &'a Path,
}

impl Requests<'_> {
    /// The plan text request `kind` sends.
    fn text(&self, kind: Kind) -> &str {
        match kind {
            Kind::Diagnose(p) => &self.pool[p].text,
            Kind::Ingest(j) => &self.fresh[j].text,
        }
    }

    /// The request index ranges of the segments.
    fn segments(&self) -> Vec<std::ops::Range<usize>> {
        let per = self.plan.len().div_ceil(self.w.segments.max(1)).max(1);
        (0..self.plan.len())
            .step_by(per)
            .map(|start| start..(start + per).min(self.plan.len()))
            .collect()
    }

    /// Run the open loop for requests `range` against `addr`; request `i`
    /// is due `(i - range.start) / rate` after the segment starts.
    fn open_loop(&self, addr: &str, range: std::ops::Range<usize>) -> Result<Vec<Sample>> {
        let rate = self.w.rate_per_s;
        let first = range.start;
        let next = AtomicUsize::new(range.start);
        let t0 = Instant::now() + Duration::from_millis(10);
        let sender = || {
            let mut done = Vec::new();
            loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                if index >= range.end {
                    break;
                }
                let kind = &self.plan[index];
                let due = t0 + Duration::from_secs_f64((index - first) as f64 / rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let path = match kind {
                    Kind::Diagnose(_) => "/v1/diagnose",
                    Kind::Ingest(_) => "/v1/ingest",
                };
                let response = http::request(addr, "POST", path, self.text(*kind).as_bytes());
                let end = Instant::now();
                let (status, body) = response.map_or((0, String::new()), |r| (r.status, r.text()));
                done.push(Sample {
                    index,
                    status,
                    latency_ms: (end - due).as_secs_f64() * 1e3,
                    late_ms: (sent - due).as_secs_f64() * 1e3,
                    body,
                });
            }
            done
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.w.sender_threads.max(1))
                .map(|_| s.spawn(sender))
                .collect();
            let mut samples = Vec::new();
            for h in handles {
                match h.join() {
                    Ok(done) => samples.extend(done),
                    Err(_) => return fail("a sender thread panicked"),
                }
            }
            Ok(samples)
        })
    }
}

/// A plan as sent: its text and, for the pool, the expected body.
struct Plan {
    text: String,
    expected: String,
}

fn load_plans(dir: &Path, with_expected: bool) -> Result<Vec<Plan>> {
    plan_files(dir)?
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)?;
            let expected = if with_expected {
                std::fs::read_to_string(path.with_extension("json"))?
            } else {
                String::new()
            };
            Ok(Plan { text, expected })
        })
        .collect()
}

/// `"generation":N` from an ingest response body.
fn generation(body: &str) -> Option<u64> {
    let rest = body.split("\"generation\":").nth(1)?;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The `optimatch_http_shed_total` counter from a Prometheus text body.
fn shed_total(metrics: &str) -> f64 {
    metrics
        .lines()
        .filter(|l| l.starts_with("optimatch_http_shed_total"))
        .filter_map(|l| l.split_whitespace().last()?.parse::<f64>().ok())
        .sum()
}

pub fn run(args: &Args, bin: &Path, dir: &Path, traced: bool) -> Result<Outcome> {
    let w = config::workload(&args.workload)?;
    let mut out = Outcome::default();
    let pristine = dir.join("plans.optirepo");
    let served = dir.join("served.optirepo");
    let reference = std::fs::read_to_string(dir.join("reference.json"))?;
    let pool = load_plans(&dir.join("pool"), true)?;
    let fresh = load_plans(&dir.join("ingest"), false)?;

    let plan = schedule(&w, args.seed, args.seconds, pool.len());
    let requests = Requests {
        w: &w,
        plan: &plan,
        pool: &pool,
        fresh: &fresh,
        pristine: &pristine,
    };
    let mut starts = Starts::default();
    let (mut loaded_rss, mut samples, mut shed, mut repo_growth) =
        (Vec::new(), Vec::new(), 0.0, 0u64);
    for range in requests.segments() {
        // Extra starts only time set-up and the first scan.
        for _ in 1..w.starts_per_segment.max(1) {
            start_and_scan(bin, &requests, &served, &reference, &mut starts, &mut out)?;
        }
        let server = start_and_scan(bin, &requests, &served, &reference, &mut starts, &mut out)?;
        let repo_before = std::fs::metadata(&served)?.len();
        let segment = requests.open_loop(&server.addr, range.clone())?;
        shed += shed_total(&http::request(&server.addr, "GET", "/metrics", b"")?.text());
        let health = http::request(&server.addr, "GET", "/healthz", b"")?.text();
        loaded_rss.push(peak_rss_mib(&server.child.id().to_string())?);
        drop(server);
        repo_growth += std::fs::metadata(&served)?
            .len()
            .saturating_sub(repo_before);

        // Each segment's ingests publish generations 1..=n exactly.
        let mut gens: Vec<u64> = segment
            .iter()
            .filter(|s| s.status == 200 && matches!(plan[s.index], Kind::Ingest(_)))
            .map(|s| generation(&s.body).unwrap_or(0))
            .collect();
        gens.sort_unstable();
        let expected: Vec<u64> = (1..=gens.len() as u64).collect();
        out.check(gens == expected, || {
            "ingest generations do not rise by exactly 1".to_string()
        });
        out.check(generation(&health) == Some(gens.len() as u64), || {
            format!(
                "final generation {health:?} is not the ingest count {}",
                gens.len()
            )
        });
        samples.extend(segment);
    }

    // Correctness and failure accounting, outside the timed region.
    let (mut diag, mut ingest) = (Vec::new(), Vec::new());
    let mut ingested_bytes = 0usize;
    for s in &samples {
        out.attempted += 1;
        let ok = s.status == 200;
        out.failed += u64::from(!ok);
        let latency = if ok { s.latency_ms } else { f64::INFINITY };
        match plan[s.index] {
            Kind::Diagnose(p) => {
                diag.push(latency);
                out.check(!ok || s.body == pool[p].expected, || {
                    format!(
                        "diagnose #{} body differs from the in-process render",
                        s.index
                    )
                });
            }
            Kind::Ingest(j) => {
                ingest.push(latency);
                if ok {
                    ingested_bytes += fresh[j].text.len();
                }
            }
        }
    }

    if !traced {
        out.metric("setup_s", median(&starts.setup));
        out.metric("scan_s", median(&starts.scan));
        out.metric("diagnose_p50_ms", quantile(&diag, 0.50));
        out.metric("peak_rss_mb", median(&starts.rss));
        out.metric(
            "repo_bytes_per_plan_byte",
            repo_growth as f64 / ingested_bytes.max(1) as f64,
        );
        return Ok(out);
    }

    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    let over = diag.iter().filter(|l| **l > w.diagnose_limit_ms).count()
        + ingest.iter().filter(|l| **l > w.ingest_limit_ms).count();
    let http_p50 = quantile(&diag, 0.50);
    let mut figures = ServiceFigures {
        overhead_ms: 0.0,
        shed,
        diagnose_p99_ms: quantile(&diag, 0.99),
        ingest_p50_ms: quantile(&ingest, 0.50),
        ingest_p90_ms: quantile(&ingest, 0.90),
        sent: samples.len() as f64,
        late_p99_ms: quantile(&late, 0.99),
        late_max_ms: late.iter().copied().fold(0.0, f64::max),
        over_limit: over as f64,
        // How high a loaded server's peak goes depends on which worker's
        // allocator arena held each ingest's copy of the resident
        // workload: one segment's peak varies from 125 to 165 MiB.
        peak_rss_mb: loaded_rss.iter().copied().fold(0.0, f64::max),
    };

    // In-process replays of the same request sequence, segment by
    // segment, each on its own copy of the pristine repository: an
    // untraced warm-up of the first segment (the first replay pays for
    // growing the heap), then per segment the measured untraced replay
    // and the traced one, so each faithfulness pair runs back to back.
    let untraced_copy = dir.join("replay-untraced.optirepo");
    let segments = requests.segments();
    if let Some(first) = segments.first() {
        requests.replay(first.clone(), &untraced_copy, &mut out)?;
    }
    let mut tr = Tracer::new();
    let mut k = Counters::default();
    let (mut pairs, mut inproc) = (Vec::new(), Vec::new());
    for range in segments {
        let (untraced_s, diag) = requests.replay(range.clone(), &untraced_copy, &mut out)?;
        inproc.extend(diag);
        let attributed_before = layers::attributed_sum(&tr.self_times());
        let traced_s = requests.replay_traced(range, dir, &mut tr, &mut k, &mut out)?;
        pairs.push(layers::Pair {
            self_sum_s: layers::attributed_sum(&tr.self_times()) - attributed_before,
            untraced_s,
            traced_s,
        });
    }
    figures.overhead_ms = http_p50 - median(&inproc);
    layers::check_faithful(&mut out, &pairs);
    let times = tr.self_times();
    tr.write(&crate::trace::path(args))?;
    let names: Vec<String> = w.kb_entries().into_iter().map(|e| e.name).collect();
    let untraced_s = pairs.iter().map(|p| p.untraced_s).sum();
    let traced_s = pairs.iter().map(|p| p.traced_s).sum();
    out.metrics = layers::metrics(&times, &k, &names, untraced_s, traced_s, &figures);
    Ok(out)
}

/// Open a session manager over a fresh copy of the pristine repository,
/// as the server does at start (outside any timing).
fn manager(w: &Workload, pristine: &Path, copy: &Path) -> Result<SessionManager> {
    std::fs::copy(pristine, copy)?;
    let opened = OptImatch::open(Source::Repo(copy.to_path_buf()), OpenOptions::new())?;
    Ok(SessionManager::new(
        opened.session,
        w.kb(),
        Some(copy.to_path_buf()),
    ))
}

impl Requests<'_> {
    /// The untraced replay of the requests in `range` (one segment, on a
    /// fresh manager) through the calls the router makes. Returns the
    /// summed request time (plus the KB build) and each diagnose's latency.
    fn replay(
        &self,
        range: std::ops::Range<usize>,
        copy: &Path,
        out: &mut Outcome,
    ) -> Result<(f64, Vec<f64>)> {
        let (w, pool) = (self.w, self.pool);
        let mgr = manager(w, self.pristine, copy)?;
        let t0 = Instant::now();
        let kb = w.kb();
        let mut total = t0.elapsed().as_secs_f64();
        let mut diag = Vec::new();
        for &kind in &self.plan[range] {
            let t0 = Instant::now();
            let qep = parse_qep(self.text(kind))?;
            match kind {
                Kind::Diagnose(p) => {
                    let outcome =
                        OptImatch::from_qeps([qep]).scan_with(&kb, ScanOptions::default())?;
                    let body = outcome.render_json();
                    let dt = t0.elapsed().as_secs_f64();
                    diag.push(dt * 1e3);
                    total += dt;
                    out.check(body == pool[p].expected, || {
                        "in-process diagnose differs".to_string()
                    });
                }
                Kind::Ingest(_) => {
                    mgr.ingest(qep, "v1-ingest")
                        .map_err(|e| BenchError(e.to_string()))?;
                    total += t0.elapsed().as_secs_f64();
                }
            }
            out.attempted += 1;
        }
        Ok((total, diag))
    }

    /// The traced replay of the requests in `range` (one segment, on a
    /// fresh manager), recomposed from per-layer calls with a span around
    /// each. Returns the summed request time.
    fn replay_traced(
        &self,
        range: std::ops::Range<usize>,
        dir: &Path,
        tr: &mut Tracer,
        k: &mut Counters,
        out: &mut Outcome,
    ) -> Result<f64> {
        let (w, pool) = (self.w, self.pool);
        let copy = dir.join("replay-traced.optirepo");
        // The append replay writes to a twin of the manager's repository.
        let twin = dir.join("replay-append.optirepo");
        let mgr = manager(w, self.pristine, &copy)?;
        std::fs::copy(self.pristine, &twin)?;
        let mut generation = mgr.generation();
        let t0 = Instant::now();
        let compiled = layers::compile(w.kb_entries(), tr)?;
        let mut total = t0.elapsed().as_secs_f64();
        let options = ScanOptions::default();
        for n in range {
            let kind = self.plan[n];
            tr.set_request(n as u64 + 1);
            let t0 = Instant::now();
            tr.span("request", |tr| -> Result<()> {
                let qep = tr.span("qep.parse", |_| parse_qep(self.text(kind)))?;
                k.parse_ops += qep.op_count() as u64;
                match kind {
                    Kind::Diagnose(p) => {
                        let workload = [layers::transform(qep, tr, k)];
                        let reports = layers::scan(&compiled, &workload, &options, tr, k)?;
                        let body = tr.span("core.render", |_| render_scan_json(&reports, &[]));
                        out.check(body == pool[p].expected, || {
                            format!("traced diagnose #{n} differs from the in-process render")
                        });
                    }
                    Kind::Ingest(_) => {
                        let t = tr.span("core.transform.ingest", |_| {
                            TransformedQep::new(qep.clone())
                        });
                        k.triples += t.graph.len() as u64;
                        let before = std::fs::metadata(&twin)?.len();
                        tr.span("repo.append", |_| {
                            let record =
                                optimatch_core::repo::snapshot(&t, "v1-ingest", Vec::new());
                            optimatch_repo::Repository::append(&twin, &[record])
                        })?;
                        k.bytes_written += std::fs::metadata(&twin)?.len().saturating_sub(before);
                        let receipt = tr
                            .span("core.live.ingest", |_| mgr.ingest(qep, "v1-ingest"))
                            .map_err(|e| BenchError(e.to_string()))?;
                        out.check(receipt.generation == generation + 1, || {
                            format!("ingest #{n} published generation {}", receipt.generation)
                        });
                        generation = receipt.generation;
                    }
                }
                Ok(())
            })?;
            total += t0.elapsed().as_secs_f64();
            out.attempted += 1;
        }
        Ok(total)
    }
}
