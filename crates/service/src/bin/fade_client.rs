//! `fade-client` — stream a `.fadet` session to a running `faded`
//! daemon and print the JSON report lines.
//!
//! ```text
//! # serve a recorded trace file
//! fade-client --socket /run/faded.sock --trace gcc.fadet --monitor MemLeak
//!
//! # record a synthetic trace on the fly and serve it
//! fade-client --socket /run/faded.sock --bench gcc --events 100000 --monitor MemCheck
//!
//! # drive a multi-tenant load test and print the throughput row
//! fade-client --socket /run/faded.sock --loadtest --tenants 8 --events 50000
//!
//! # stop the daemon
//! fade-client --socket /run/faded.sock --shutdown
//! ```

use std::process::ExitCode;

use fade_service::harness::{measure_service_throughput_at, LoadOptions};
use fade_service::{send_shutdown, stream_session, EngineSel, Hello};
use fade_system::record_trace_prefix;
use fade_trace::{bench, encode_trace, TraceMeta};

fn usage() -> ExitCode {
    eprintln!(
        "usage: fade-client --socket PATH [MODE] [OPTIONS]\n\
         \n\
         modes:\n\
         \x20 --trace FILE              stream a recorded .fadet file\n\
         \x20 --bench NAME --events N   record a synthetic trace and stream it\n\
         \x20 --loadtest                drive --tenants concurrent sessions\n\
         \x20 --shutdown                stop the daemon\n\
         \n\
         session options:\n\
         \x20 --tenant ID               tenant id (default: fade-client)\n\
         \x20 --monitor NAME            monitor to run (default: AddrCheck)\n\
         \x20 --engine cycle|batched|unaccelerated   (default: batched)\n\
         \x20 --recover                 skip corrupt chunks, report degradation\n\
         \x20 --shadow-mem-cap N  --seed N\n\
         \n\
         loadtest options:\n\
         \x20 --tenants N               concurrent tenants (default: 8)\n\
         \x20 --events N                events per tenant (default: 50000)"
    );
    ExitCode::from(2)
}

struct Args {
    socket: Option<String>,
    trace: Option<String>,
    bench: Option<String>,
    events: u64,
    monitor: String,
    tenant: String,
    engine: EngineSel,
    recover: bool,
    shutdown: bool,
    loadtest: bool,
    tenants: usize,
    shadow_mem_cap: Option<u64>,
    seed: Option<u64>,
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut a = Args {
        socket: None,
        trace: None,
        bench: None,
        events: 50_000,
        monitor: "AddrCheck".into(),
        tenant: "fade-client".into(),
        engine: EngineSel::Batched,
        recover: false,
        shutdown: false,
        loadtest: false,
        tenants: 8,
        shadow_mem_cap: None,
        seed: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, ExitCode> {
            args.next().ok_or_else(|| {
                eprintln!("fade-client: {name} needs a value");
                ExitCode::from(2)
            })
        };
        fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, ExitCode> {
            v.parse().map_err(|_| {
                eprintln!("fade-client: {name} needs a number, got {v:?}");
                ExitCode::from(2)
            })
        }
        match arg.as_str() {
            "--socket" => a.socket = Some(value("--socket")?),
            "--trace" => a.trace = Some(value("--trace")?),
            "--bench" => a.bench = Some(value("--bench")?),
            "--events" => a.events = num("--events", value("--events")?)?,
            "--monitor" => a.monitor = value("--monitor")?,
            "--tenant" => a.tenant = value("--tenant")?,
            "--engine" => {
                let v = value("--engine")?;
                a.engine = EngineSel::parse(&v).ok_or_else(|| {
                    eprintln!("fade-client: unknown engine {v:?}");
                    ExitCode::from(2)
                })?;
            }
            "--recover" => a.recover = true,
            "--shutdown" => a.shutdown = true,
            "--loadtest" => a.loadtest = true,
            "--tenants" => a.tenants = num("--tenants", value("--tenants")?)?,
            "--shadow-mem-cap" => {
                a.shadow_mem_cap = Some(num("--shadow-mem-cap", value("--shadow-mem-cap")?)?)
            }
            "--seed" => a.seed = Some(num("--seed", value("--seed")?)?),
            "--help" | "-h" => return Err(usage()),
            other => {
                eprintln!("fade-client: unknown argument {other:?}");
                return Err(usage());
            }
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let Some(socket) = a.socket.as_deref() else {
        return usage();
    };
    let socket = std::path::Path::new(socket);

    if a.shutdown {
        return match send_shutdown(socket) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("fade-client: shutdown failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if a.loadtest {
        let opts = LoadOptions {
            tenants: a.tenants,
            events_per_tenant: a.events,
            engine: a.engine,
            ..LoadOptions::default()
        };
        return match measure_service_throughput_at(socket, &opts) {
            Ok(r) => {
                println!(
                    "{{\"tenants\": {}, \"events\": {}, \"reports\": {}, \
                     \"events_per_sec_aggregate\": {:.0}, \"p50_latency_s\": {:.4}, \
                     \"max_latency_s\": {:.4}, \"wall_s\": {:.3}}}",
                    r.tenants,
                    r.events,
                    r.reports,
                    r.aggregate_rate(),
                    r.p50_latency_s,
                    r.max_latency_s,
                    r.wall_s
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("fade-client: loadtest failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Single-session mode: a trace file, or a synthetic recording.
    let trace: Vec<u8> = if let Some(path) = &a.trace {
        match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!("fade-client: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(name) = &a.bench {
        let Some(b) = bench::by_name(name) else {
            eprintln!("fade-client: unknown benchmark {name:?}");
            return ExitCode::FAILURE;
        };
        let seed = a.seed.unwrap_or(42);
        let (records, _instrs) = record_trace_prefix(&b, &a.monitor, seed, a.events);
        encode_trace(&TraceMeta::new(name, seed), &records)
    } else {
        return usage();
    };

    let hello = Hello {
        engine: a.engine,
        recover: a.recover,
        shadow_mem_cap: a.shadow_mem_cap,
        seed: a.seed,
        ..Hello::new(a.tenant.clone(), a.monitor.clone())
    };
    match stream_session(socket, &hello, &trace, |line| println!("{line}")) {
        Ok(end) => {
            eprintln!(
                "fade-client: done — {} events, {} instrs, {} reports",
                end.events, end.instrs, end.reports
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fade-client: {e}");
            ExitCode::FAILURE
        }
    }
}
