//! `wire-memlink`: `WireClient` ↔ `WireServer` over `MemLink` in one
//! thread, at-most-once, as a closed loop of one client with one call
//! outstanding. Request and response sizes follow a 400-method catalog.

use crate::span::Tracer;
use crate::{percentile, vm_kib, Metrics, Rep};
use rpclens_bench::wire::{build_table, CatalogHandler, WireBenchConfig};
use rpclens_fleet::servable::ServableMethod;
use rpclens_obs::manifest::fnv1a;
use rpclens_rpcstack::codec::{decode_frame, Flags};
use rpclens_rpcwire::client::{PendingCall, RetryPolicy, WireClient};
use rpclens_rpcwire::message::{Response, Status, WireError};
use rpclens_rpcwire::payload;
use rpclens_rpcwire::server::{Semantics, WireServer};
use rpclens_rpcwire::transport::MemLink;
use rpclens_simcore::rng::Prng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls per repetition. Every reply stays in the at-most-once dedup
/// cache (capacity 64k), so this also fixes the server's resident state.
const CALLS: u64 = 10_000;
const METHODS: usize = 400;
const CLIENT_ID: u64 = 0xBE7C;

/// The reply body the catalog handler must produce for one request: the
/// handler's documented derivation, recomputed here so that a reply is
/// checked against the contract rather than against itself.
fn expected_reply(seed: u64, method: &ServableMethod, request_id: u64, out: &mut Vec<u8>) {
    let mut rng = Prng::seed_from(seed ^ CLIENT_ID)
        .stream(u64::from(method.method.0))
        .substream(request_id);
    let len = payload::sample_wire_len(&method.resp_size, &mut rng);
    payload::fill_body(&mut rng, len, out);
}

/// Per-repetition wire counters.
#[derive(Default)]
struct Counts {
    failed: u64,
    compress_attempts: u64,
    compress_kept: u64,
    raw_bytes: u64,
    wire_bytes: u64,
    handler_ns: u64,
}

impl Counts {
    /// Compression outcome and body bytes of one completed call, both
    /// directions. Traced runs only: the request's compression flag is
    /// read back by decoding its frame.
    fn record(&mut self, request: &PendingCall, raw_len: usize, resp: &Response, compress: bool) {
        let frame = decode_frame(&request.datagram).expect("the client framed this datagram");
        let request_compressed = frame.header.flags.contains(Flags::COMPRESSED);
        if compress {
            self.compress_attempts += 2;
            self.compress_kept += u64::from(request_compressed) + u64::from(resp.was_compressed);
        }
        self.raw_bytes += (raw_len + resp.body.len()) as u64;
        self.wire_bytes += (frame.payload.len() + resp.wire_body_len) as u64;
        self.handler_ns += resp.server_exec_ns;
    }
}

/// Runs one repetition of `wire-memlink`.
pub fn run(seed: u64, tracer: &mut Tracer) -> Rep {
    let mut m = Metrics::default();
    let rep = tracer.enter("bench.rep");

    let setup_start = Instant::now();
    let config = WireBenchConfig {
        requests: CALLS as u32,
        seed,
        total_methods: METHODS,
        semantics: Semantics::AtMostOnce,
    };
    let table = Arc::new(tracer.time("fleet.servable_table", || build_table(&config)));
    let (client_end, server_end) = MemLink::pair();
    let mut server = WireServer::new(
        server_end,
        CatalogHandler::new(table.clone(), seed),
        Semantics::AtMostOnce,
    );
    let mut client = WireClient::new(client_end, CLIENT_ID, RetryPolicy::default(), seed);
    m.put("setup_s", setup_start.elapsed().as_secs_f64());

    let mut rng = Prng::seed_from(seed).stream(0x317E);
    let mut body = Vec::new();
    let mut expected = Vec::new();
    let mut latencies_ns = Vec::with_capacity(CALLS as usize);
    let mut counts = Counts::default();
    let mut digest = 0u64;
    let batch_start = Instant::now();
    for _ in 0..CALLS {
        let guard = tracer.enter("rpcwire.payload");
        let method = table.sample_root(&mut rng);
        let len = payload::sample_wire_len(&method.req_size, &mut rng);
        payload::fill_body(&mut rng, len, &mut body);
        let compress = method.class.compressed;
        tracer.exit(guard);

        let call = tracer.enter("rpcwire.call");
        let start = Instant::now();
        let reply = call_once(&mut client, &mut server, tracer, method, &body);
        latencies_ns.push(start.elapsed().as_nanos() as f64);
        tracer.exit(call);

        let guard = tracer.enter("bench.verify");
        let ok = match &reply {
            Ok((pending, resp)) if resp.status == Status::Ok => {
                expected_reply(seed, method, pending.request_id, &mut expected);
                resp.body[..] == expected[..]
            }
            _ => false,
        };
        if !ok {
            counts.failed += 1;
        }
        if let Ok((pending, resp)) = &reply {
            digest = digest.rotate_left(7) ^ fnv1a(&body) ^ fnv1a(&resp.body).rotate_left(32);
            if tracer.enabled() {
                counts.record(pending, body.len(), resp, compress);
            }
        }
        tracer.exit(guard);
    }
    let wall_s = batch_start.elapsed().as_secs_f64();

    let calls = CALLS as f64;
    m.put("wall_s", wall_s);
    m.put("rpcs_per_s", calls / wall_s);
    m.put("sim_ns_per_span", latencies_ns.iter().sum::<f64>() / calls);
    latencies_ns.sort_by(f64::total_cmp);
    m.put("rpc_p50_us", percentile(&latencies_ns, 0.50) / 1e3);
    m.put("rpc_p99_us", percentile(&latencies_ns, 0.99) / 1e3);
    m.put("failed_frac", counts.failed as f64 / calls);
    if tracer.enabled() {
        let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        m.put("rpcwire.handler_ns", ratio(counts.handler_ns, CALLS));
        m.put(
            "rpcwire.compress_kept_frac",
            ratio(counts.compress_kept, counts.compress_attempts),
        );
        m.put(
            "rpcwire.wire_bytes_ratio",
            ratio(counts.wire_bytes, counts.raw_bytes),
        );
    }
    let pins = vec![
        ("reply_digest", format!("{digest:016x}")),
        ("calls", CALLS.to_string()),
        ("server_executed", server.stats().executed.to_string()),
    ];
    drop((server, client));
    tracer.exit(rep);
    if tracer.enabled() {
        let totals = tracer.totals();
        let per_call = |name: &str, own: bool| {
            totals.get(name).map_or(0.0, |t| {
                (if own { t.self_ns } else { t.total_ns }) as f64 / calls
            })
        };
        m.put("rpcwire.payload_ns", per_call("rpcwire.payload", false));
        m.put(
            "rpcwire.client_start_ns",
            per_call("rpcwire.client_start", false),
        );
        m.put(
            "rpcwire.server_poll_ns",
            per_call("rpcwire.server_poll", false),
        );
        m.put(
            "rpcwire.client_complete_ns",
            per_call("rpcwire.client_complete", false),
        );
        m.put("self.rpcwire.call_ns", per_call("rpcwire.call", true));
        m.put("self.bench.rep_s", totals["bench.rep"].self_s());
    }
    m.put("peak_rss_mb", vm_kib("VmHWM") / 1024.0);
    Rep {
        metrics: m,
        pins,
        operations: CALLS,
        failed: counts.failed,
    }
}

/// One closed-loop call: hand the body to `start_call`, let the server
/// poll, and collect the decoded reply. `MemLink` is lossless, so a
/// missing reply only means the server has not run yet; the retry
/// policy's attempt limit still bounds the loop.
fn call_once(
    client: &mut WireClient<MemLink>,
    server: &mut WireServer<MemLink, CatalogHandler>,
    tracer: &mut Tracer,
    method: &ServableMethod,
    body: &[u8],
) -> Result<(PendingCall, Response), WireError> {
    let mut pending = tracer.time("rpcwire.client_start", || {
        client.start_call(u64::from(method.method.0), body, method.class.compressed)
    })?;
    loop {
        tracer.time("rpcwire.server_poll", || server.poll())?;
        let reply = tracer.time("rpcwire.client_complete", || {
            client.try_complete(&pending, Duration::ZERO)
        })?;
        if let Some(resp) = reply {
            return Ok((pending, resp));
        }
        if pending.attempts >= RetryPolicy::default().max_attempts {
            return Err(WireError::TimedOut {
                attempts: pending.attempts,
            });
        }
        client.retransmit(&mut pending)?;
    }
}
