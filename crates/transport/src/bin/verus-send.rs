//! `verus-send` — the sender application (paper §5's sender).
//!
//! Runs a congestion controller (Verus by default, or any baseline) over
//! UDP towards a `verus-recv` instance as one flow of the transport's
//! `ShardServer`, then prints the flow's statistics. The socket binds to
//! loopback for a loopback destination and to the unspecified address
//! otherwise.
//!
//! ```bash
//! verus-send <dest-addr> [options]
//!   --proto <verus|cubic|newreno|vegas|sprout>   (default verus)
//!   --r <float>          Verus R parameter        (default 2)
//!   --secs <u64>         transfer duration        (default 30)
//!   --bytes <u32>        payload per packet       (default 1400)
//!   --json               machine-readable output
//! ```

use std::net::SocketAddr;
use verus_baselines::{Cubic, NewReno, Sprout, Vegas};
use verus_core::{VerusCc, VerusConfig};
use verus_nettypes::{CongestionControl, SimDuration};
use verus_transport::{FlowSpec, SessionReport, ShardServer, ShardServerConfig, WallClock};

struct Args {
    dest: SocketAddr,
    proto: String,
    r: f64,
    secs: u64,
    bytes: u32,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let dest = argv
        .next()
        .ok_or("usage: verus-send <dest-addr> [--proto P] [--r R] [--secs N] [--bytes B] [--json]")?;
    let dest: SocketAddr = dest
        .parse()
        .map_err(|e| format!("invalid destination {dest:?}: {e}"))?;
    let mut args = Args {
        dest,
        proto: "verus".into(),
        r: 2.0,
        secs: 30,
        bytes: 1400,
        json: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--proto" => args.proto = value("--proto")?,
            "--r" => {
                args.r = value("--r")?
                    .parse()
                    .map_err(|e| format!("--r: {e}"))?;
            }
            "--secs" => {
                args.secs = value("--secs")?
                    .parse()
                    .map_err(|e| format!("--secs: {e}"))?;
            }
            "--bytes" => {
                args.bytes = value("--bytes")?
                    .parse()
                    .map_err(|e| format!("--bytes: {e}"))?;
            }
            "--json" => args.json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn controller(proto: &str, r: f64) -> Result<Box<dyn CongestionControl>, String> {
    Ok(match proto {
        "verus" => Box::new(VerusCc::new(VerusConfig::with_r(r))),
        "cubic" => Box::new(Cubic::new()),
        "newreno" => Box::new(NewReno::new()),
        "vegas" => Box::new(Vegas::new()),
        "sprout" => Box::new(Sprout::default()),
        other => return Err(format!("unknown protocol {other:?}")),
    })
}

/// The flow's report as one JSON object.
fn report_json(r: &SessionReport) -> String {
    let s = &r.stats;
    format!(
        "{{\n  \"protocol\": \"{}\",\n  \"sent\": {},\n  \"acked\": {},\n  \
         \"fast_losses\": {},\n  \"timeouts\": {},\n  \"shed_dropped\": {},\n  \
         \"duration_secs\": {:.3},\n  \"throughput_mbps\": {:.3},\n  \
         \"delay_ms\": {{ \"mean\": {:.3}, \"std\": {:.3}, \"max\": {:.3} }},\n  \
         \"final_state\": \"{:?}\",\n  \"probes_sent\": {}\n}}",
        s.protocol,
        s.sent,
        s.acked,
        s.fast_losses,
        s.timeouts,
        s.shed_dropped,
        s.duration_secs,
        s.mean_throughput_mbps(),
        s.mean_delay_ms(),
        s.delay_ms.std_dev(),
        s.delay_ms.max().unwrap_or(0.0),
        r.final_state,
        r.probes_sent,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let cc = match controller(&args.proto, args.r) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // The gap timer: Verus' §5.2 3×delay; RACK-ish 2× for the baselines.
    let gap_factor = if args.proto == "verus" { 3.0 } else { 2.0 };
    let config = ShardServerConfig {
        packet_bytes: args.bytes,
        gap_factor,
        ..ShardServerConfig::one_flow(SimDuration::from_secs(args.secs))
    };
    eprintln!(
        "verus-send: {} → {} for {} s ({} B packets)",
        args.proto, args.dest, args.secs, args.bytes
    );
    let server = ShardServer::new(config);
    let flow = match server.run(vec![FlowSpec::stream(args.dest, cc)], WallClock::new()) {
        Ok(mut r) => r.flows.remove(0),
        Err(e) => {
            eprintln!("transfer failed: {e}");
            std::process::exit(1);
        }
    };
    if args.json {
        println!("{}", report_json(&flow));
    } else {
        let s = &flow.stats;
        println!(
            "throughput : {:.3} Mbit/s ({} acked / {} sent)",
            s.mean_throughput_mbps(),
            s.acked,
            s.sent
        );
        println!(
            "delay      : mean {:.1} ms, std {:.1} ms, max {:.1} ms",
            s.mean_delay_ms(),
            s.delay_ms.std_dev(),
            s.delay_ms.max().unwrap_or(0.0)
        );
        println!("losses     : {} fast, {} timeouts", s.fast_losses, s.timeouts);
    }
}
