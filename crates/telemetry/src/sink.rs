//! Telemetry sinks: rendering a [`Telemetry`] hub to Prometheus text or a
//! JSON snapshot, on demand or over a tiny `std::net::TcpListener`
//! exposition endpoint.
//!
//! The exposition server is deliberately minimal — one nonblocking accept
//! loop on a background thread, HTTP/1.0, two routes: `GET /metrics`
//! returns Prometheus text exposition, anything else returns the JSON
//! snapshot. It exists so a live run can be scraped (by `curl`, a
//! Prometheus agent, or the CI smoke test) without pulling in an HTTP
//! stack.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::{StageHistogram, Telemetry};

/// Renders an `f64` the way every report does — delegated to the shared
/// [`idsbench_core::json`] helpers so the conventions can't drift apart.
pub(crate) fn json_f64(value: f64) -> String {
    idsbench_core::json::fmt_num(value)
}

fn stage_labels(stage: &StageHistogram) -> String {
    match stage.shard() {
        Some(shard) => format!("stage=\"{}\",shard=\"{shard}\"", stage.stage().name()),
        None => format!("stage=\"{}\",shard=\"feeder\"", stage.stage().name()),
    }
}

impl Telemetry {
    /// Prometheus text exposition (format 0.0.4) of every registered
    /// metric: counters, gauges, per-stage latency quantiles, and journal
    /// occupancy.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        for counter in self.registry().counters() {
            out.push_str(&format!("# TYPE idsbench_{} counter\n", counter.name()));
            out.push_str(&format!("idsbench_{} {}\n", counter.name(), counter.get()));
        }
        for gauge in self.registry().gauges() {
            out.push_str(&format!("# TYPE idsbench_{} gauge\n", gauge.name()));
            out.push_str(&format!("idsbench_{} {}\n", gauge.name(), gauge.get()));
        }
        let stages = self.stages();
        if !stages.is_empty() {
            out.push_str("# TYPE idsbench_stage_latency_nanos summary\n");
            for stage in &stages {
                let hist = stage.histogram().snapshot();
                let labels = stage_labels(stage);
                for (q, tag) in [(0.5, "0.5"), (0.99, "0.99")] {
                    out.push_str(&format!(
                        "idsbench_stage_latency_nanos{{{labels},quantile=\"{tag}\"}} {}\n",
                        hist.percentile(q)
                    ));
                }
                out.push_str(&format!(
                    "idsbench_stage_latency_nanos_count{{{labels}}} {}\n",
                    hist.len()
                ));
            }
        }
        let journal = self.journal().snapshot();
        out.push_str("# TYPE idsbench_journal_events gauge\n");
        out.push_str(&format!("idsbench_journal_events {}\n", journal.events.len()));
        out.push_str("# TYPE idsbench_journal_events_dropped gauge\n");
        out.push_str(&format!("idsbench_journal_events_dropped {}\n", journal.dropped));
        out
    }

    /// One JSON object capturing the whole hub: counters, gauges, stage
    /// percentiles, and the journal snapshot. Hand-rolled, `report.rs`
    /// conventions.
    pub fn json_snapshot(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":{");
        for (i, counter) in self.registry().counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", counter.name(), counter.get()));
        }
        out.push_str("},\"gauges\":{");
        for (i, gauge) in self.registry().gauges().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", gauge.name(), gauge.get()));
        }
        out.push_str("},\"stages\":[");
        for (i, stage) in self.stages().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let hist = stage.histogram().snapshot();
            let shard = match stage.shard() {
                Some(shard) => format!("{shard}"),
                None => "\"feeder\"".to_string(),
            };
            out.push_str(&format!(
                "{{\"stage\":\"{}\",\"shard\":{shard},\"count\":{},\"p50_nanos\":{},\
                 \"p99_nanos\":{}}}",
                stage.stage().name(),
                hist.len(),
                hist.percentile(0.5),
                hist.percentile(0.99)
            ));
        }
        out.push_str("],\"journal\":");
        out.push_str(&self.journal().snapshot().to_json());
        out.push('}');
        out
    }
}

/// The running exposition server. Stops (and joins its thread) on drop.
#[derive(Debug)]
pub struct TelemetrySink {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl TelemetrySink {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves the exposition
    /// endpoint on a background thread: `GET /metrics` → Prometheus text,
    /// any other path → JSON snapshot.
    pub fn serve<A: ToSocketAddrs>(
        telemetry: Arc<Telemetry>,
        addr: A,
    ) -> std::io::Result<TelemetrySink> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // One request per connection, best-effort: a
                        // malformed or slow client is dropped, never waited
                        // on.
                        let _ = serve_one(stream, &telemetry);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });
        Ok(TelemetrySink { stop, handle: Some(handle), addr: local })
    }

    /// The bound address of the exposition server. With port 0, this is
    /// where the OS actually put it.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the sink and joins its thread (also happens on drop).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetrySink {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_one(mut stream: TcpStream, telemetry: &Telemetry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_write_timeout(Some(Duration::from_millis(250)))?;
    stream.set_nonblocking(false)?;
    let mut request = [0u8; 1024];
    let mut used = 0;
    // Read until the end of the request head (or the buffer/timeout gives
    // out) — enough for any GET line a scraper sends.
    while used < request.len() {
        match stream.read(&mut request[used..]) {
            Ok(0) => break,
            Ok(n) => {
                used += n;
                if request[..used].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&request[..used]);
    let path = head.split_whitespace().nth(1).unwrap_or("/");
    let (body, content_type) = if path == "/metrics" {
        (telemetry.prometheus_text(), "text/plain; version=0.0.4")
    } else {
        (telemetry.json_snapshot(), "application/json")
    };
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JournalEvent, Stage, TelemetryConfig};

    fn hub() -> Arc<Telemetry> {
        let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));
        telemetry.counter("packets_total").add(42);
        telemetry.gauge("live_shards").set(3);
        telemetry.stage(Stage::Score, Some(0)).record(1_000);
        telemetry.journal().push(JournalEvent::PacketDrops { dropped: 7 });
        telemetry
    }

    #[test]
    fn prometheus_text_lists_everything() {
        let text = hub().prometheus_text();
        assert!(text.contains("idsbench_packets_total 42"), "{text}");
        assert!(text.contains("idsbench_live_shards 3"), "{text}");
        assert!(
            text.contains(
                "idsbench_stage_latency_nanos{stage=\"score\",shard=\"0\",quantile=\"0.99\"}"
            ),
            "{text}"
        );
        assert!(
            text.contains("idsbench_stage_latency_nanos_count{stage=\"score\",shard=\"0\"} 1"),
            "{text}"
        );
        assert!(text.contains("idsbench_journal_events 1"), "{text}");
    }

    #[test]
    fn json_snapshot_is_one_object() {
        let json = hub().json_snapshot();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"packets_total\":42"), "{json}");
        assert!(json.contains("\"stage\":\"score\",\"shard\":0"), "{json}");
        assert!(json.contains("\"type\":\"packet_drops\",\"dropped\":7"), "{json}");
        let depth: i32 = json
            .chars()
            .map(|c| match c {
                '{' | '[' => 1,
                '}' | ']' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(depth, 0, "balanced braces: {json}");
    }

    #[test]
    fn exposition_server_serves_both_routes() {
        let telemetry = hub();
        let sink = TelemetrySink::serve(telemetry, "127.0.0.1:0").expect("bind loopback");
        let addr = sink.local_addr();

        let scrape = |path: &str| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
                .expect("send request");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read response");
            response
        };

        let metrics = scrape("/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK"), "{metrics}");
        assert!(metrics.contains("idsbench_packets_total 42"), "{metrics}");
        let snapshot = scrape("/snapshot");
        assert!(snapshot.contains("application/json"), "{snapshot}");
        assert!(snapshot.contains("\"packets_total\":42"), "{snapshot}");
        sink.stop();
    }

    #[test]
    fn json_f64_matches_report_conventions() {
        assert_eq!(json_f64(3.0), "3");
        assert_eq!(json_f64(3.25), "3.25");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
