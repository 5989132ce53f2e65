//! `uno-inspect` — render a self-contained report of a run artifact.
//!
//! ```text
//! uno-scenario sc.json --telemetry --profile > run.json
//! uno-inspect run.json                  # ASCII report on stdout
//! uno-inspect run.json --html out.html  # self-contained HTML report
//! uno-inspect run.json --collapsed out.folded   # flamegraph input
//! uno-inspect diff a.json b.json        # compare two runs side by side
//! uno-inspect summarize trace.jsonl          # per-flow/per-queue tables
//! uno-inspect summarize trace.jsonl --json   # machine-readable digest
//! uno-inspect summarize trace.jsonl --cwnd 0 # cwnd timeline of flow 0
//! ```
//!
//! The input is the JSON printed by `uno-scenario` (or any JSON carrying
//! the same `manifest.counters` / `telemetry` / `profile` sections). The
//! report shows counter tables, ASCII timelines of per-link queue depth
//! and per-flow delivery rate, and the span profiler's
//! inclusive/exclusive time breakdown. `--strict` exits non-zero unless
//! every section is present and non-empty (used by the CI smoke lane).
//! `summarize` instead digests a JSONL trace written by
//! `uno-scenario --trace`; its usage errors exit 2, and `--cwnd` on a flow
//! the trace lacks exits 1.

use std::fmt::Write as _;
use std::process::exit;

use serde::Value;
use uno_trace::{ProfileReport, TraceSummary};

/// ASCII ramp used for timeline rendering (space = zero).
const RAMP: &[u8] = b" .:-=+*#%@";
/// Timeline width in characters.
const WIDTH: usize = 64;
/// Maximum link/flow series rendered per section.
const TOP: usize = 8;

fn die(msg: &str) -> ! {
    eprintln!("uno-inspect: {msg}");
    eprintln!(
        "usage: uno-inspect <run.json> [--html <out.html>] [--collapsed <out.folded>] [--strict]\n\
         \x20      uno-inspect diff <a.json> <b.json>\n\
         \x20      uno-inspect summarize <trace.jsonl> [--json] [--cwnd FLOW]"
    );
    exit(1);
}

fn load(path: &str) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    serde_json::parse_value(&text).unwrap_or_else(|e| die(&format!("invalid JSON in {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("summarize") {
        summarize(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("diff") {
        if args.len() != 3 {
            die("diff needs exactly two run files");
        }
        print!(
            "{}",
            render_diff(&load(&args[1]), &load(&args[2]), &args[1], &args[2])
        );
        return;
    }
    let mut path: Option<&str> = None;
    let mut html: Option<&str> = None;
    let mut collapsed: Option<&str> = None;
    let mut strict = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--html" => html = Some(it.next().unwrap_or_else(|| die("--html needs a path"))),
            "--collapsed" => {
                collapsed = Some(it.next().unwrap_or_else(|| die("--collapsed needs a path")))
            }
            "--strict" => strict = true,
            other if !other.starts_with("--") && path.is_none() => path = Some(other),
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let Some(path) = path else {
        die("no run file given");
    };
    let run = load(path);

    if strict {
        enforce_strict(&run);
    }
    print!("{}", render_report(&run, path));
    if let Some(out) = collapsed {
        let report = profile_of(&run)
            .unwrap_or_else(|| die("run has no profile section (re-run with --profile)"));
        std::fs::write(out, report.to_collapsed())
            .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
        eprintln!("uno-inspect: collapsed stacks written to {out}");
    }
    if let Some(out) = html {
        std::fs::write(out, render_html(&run, path))
            .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
        eprintln!("uno-inspect: HTML report written to {out}");
    }
}

/// A `summarize` usage or input error: exit 2.
fn die_summarize(msg: &str) -> ! {
    eprintln!("uno-inspect summarize: {msg}");
    eprintln!("usage: uno-inspect summarize <trace.jsonl> [--json] [--cwnd FLOW]");
    exit(2);
}

/// `summarize <trace.jsonl> [--json] [--cwnd FLOW]`: per-flow and per-queue
/// tables of a JSONL trace, its digest as JSON, or one flow's cwnd
/// timeline.
fn summarize(args: &[String]) {
    let mut path = None;
    let mut json = false;
    let mut cwnd_flow: Option<u32> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--cwnd" => {
                cwnd_flow = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die_summarize("--cwnd needs a flow id")),
                );
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other),
            other => die_summarize(&format!("unknown argument `{other}`")),
        }
    }
    let Some(path) = path else {
        die_summarize("no trace file given");
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die_summarize(&format!("cannot read trace {path}: {e}")));
    let summary = TraceSummary::from_jsonl(&text)
        .unwrap_or_else(|e| die_summarize(&format!("malformed trace {path}: {e}")));
    if summary.skipped_lines > 0 {
        eprintln!(
            "uno-inspect summarize: warning: skipped {} malformed line(s) in {path}",
            summary.skipped_lines
        );
    }

    if let Some(flow) = cwnd_flow {
        let Some(f) = summary.flows.iter().find(|f| f.flow == flow) else {
            eprintln!("flow {flow} not present in trace");
            exit(1);
        };
        println!("t_ns cwnd_bytes");
        for (t, w) in &f.cwnd {
            println!("{t} {w:.0}");
        }
        return;
    }
    if json {
        let digest = serde_json::to_string_pretty(&summary).expect("a summary serializes");
        println!("{digest}");
    } else {
        print!("{}", summary.render());
    }
}

/// `--strict`: every section must be present and non-empty.
fn enforce_strict(run: &Value) {
    let mut missing = Vec::new();
    if counters_of(run).is_empty() {
        missing.push("counters");
    }
    let telemetry_series = telemetry_of(run).map_or(0, |t| {
        series_group(t, "links").len() + series_group(t, "flows").len()
    });
    if telemetry_series == 0 {
        missing.push("telemetry");
    }
    if profile_of(run).is_none_or(|p| p.rows.is_empty()) {
        missing.push("profile");
    }
    if !missing.is_empty() {
        eprintln!(
            "uno-inspect: --strict: empty or missing section(s): {}",
            missing.join(", ")
        );
        exit(2);
    }
}

// ---------------------------------------------------------------- sections

/// The counter snapshot: `manifest.counters` or a top-level `counters`.
fn counters_of(run: &Value) -> Vec<(String, u64)> {
    let c = run
        .get("manifest")
        .and_then(|m| m.get("counters"))
        .or_else(|| run.get("counters"));
    let Some(obj) = c.and_then(Value::as_object) else {
        return Vec::new();
    };
    obj.iter()
        .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n as u64)))
        .collect()
}

fn telemetry_of(run: &Value) -> Option<&Value> {
    match run.get("telemetry") {
        Some(Value::Null) | None => None,
        Some(t) => Some(t),
    }
}

fn profile_of(run: &Value) -> Option<ProfileReport> {
    match run.get("profile") {
        Some(Value::Null) | None => None,
        Some(p) => ProfileReport::from_value(p),
    }
}

/// Parse one serialized series (`[[t, v], ...]`) back into points.
fn parse_series(v: &Value) -> Vec<(u64, u64)> {
    v.as_array()
        .map(|pts| {
            pts.iter()
                .filter_map(|p| {
                    let p = p.as_array()?;
                    Some((p.first()?.as_f64()? as u64, p.get(1)?.as_f64()? as u64))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// All `(id, bundle)` entries of `telemetry.links` / `telemetry.flows`.
fn series_group<'a>(telemetry: &'a Value, group: &str) -> Vec<(&'a str, &'a Value)> {
    telemetry
        .get(group)
        .and_then(Value::as_object)
        .map(|o| o.iter().map(|(k, v)| (k.as_str(), v)).collect())
        .unwrap_or_default()
}

// --------------------------------------------------------------- rendering

fn mean_max(points: &[(u64, u64)]) -> (f64, u64) {
    if points.is_empty() {
        return (0.0, 0);
    }
    let sum: u64 = points.iter().map(|&(_, v)| v).sum();
    let max = points.iter().map(|&(_, v)| v).max().unwrap_or(0);
    (sum as f64 / points.len() as f64, max)
}

/// Render points as a fixed-width ASCII timeline (bucketed maxima scaled
/// against the series max).
fn timeline(points: &[(u64, u64)], width: usize) -> String {
    if points.is_empty() {
        return " ".repeat(width);
    }
    let (t0, t1) = (points[0].0, points[points.len() - 1].0.max(points[0].0 + 1));
    let mut buckets = vec![0u64; width];
    for &(t, v) in points {
        let idx = ((t - t0) as u128 * (width as u128 - 1) / (t1 - t0) as u128) as usize;
        buckets[idx] = buckets[idx].max(v);
    }
    let peak = buckets.iter().copied().max().unwrap_or(0);
    buckets
        .iter()
        .map(|&v| {
            if peak == 0 {
                ' '
            } else {
                let lvl = (v as u128 * (RAMP.len() as u128 - 1) / peak as u128) as usize;
                RAMP[lvl] as char
            }
        })
        .collect()
}

fn fmt_bytes(n: u64) -> String {
    match n {
        n if n >= 1 << 30 => format!("{:.1} GiB", n as f64 / (1u64 << 30) as f64),
        n if n >= 1 << 20 => format!("{:.1} MiB", n as f64 / (1u64 << 20) as f64),
        n if n >= 1 << 10 => format!("{:.1} KiB", n as f64 / 1024.0),
        n => format!("{n} B"),
    }
}

fn fmt_bps(n: u64) -> String {
    match n {
        n if n >= 1_000_000_000 => format!("{:.1} Gbps", n as f64 / 1e9),
        n if n >= 1_000_000 => format!("{:.1} Mbps", n as f64 / 1e6),
        n if n >= 1_000 => format!("{:.1} Kbps", n as f64 / 1e3),
        n => format!("{n} bps"),
    }
}

fn fmt_ns(n: u64) -> String {
    match n {
        n if n >= 1_000_000_000 => format!("{:.2} s", n as f64 / 1e9),
        n if n >= 1_000_000 => format!("{:.2} ms", n as f64 / 1e6),
        n if n >= 1_000 => format!("{:.1} µs", n as f64 / 1e3),
        n => format!("{n} ns"),
    }
}

/// The 0/1 pause-state series of one link, if it was ever paused.
fn pause_state_of(telemetry: &Value, id: &str) -> Vec<(u64, u64)> {
    series_group(telemetry, "links")
        .into_iter()
        .find(|&(i, _)| i == id)
        .and_then(|(_, bundle)| bundle.get("paused"))
        .map(parse_series)
        .unwrap_or_default()
}

/// Top-`TOP` entries of a group by peak value of `key`, descending.
fn top_series<'a>(telemetry: &'a Value, group: &str, key: &str) -> Vec<(&'a str, Vec<(u64, u64)>)> {
    let mut rows: Vec<(&str, Vec<(u64, u64)>)> = series_group(telemetry, group)
        .into_iter()
        .filter_map(|(id, bundle)| Some((id, parse_series(bundle.get(key)?))))
        .collect();
    rows.sort_by_key(|(id, pts)| {
        let max = pts.iter().map(|&(_, v)| v).max().unwrap_or(0);
        (
            std::cmp::Reverse(max),
            id.parse::<u64>().unwrap_or(u64::MAX),
        )
    });
    rows.truncate(TOP);
    rows
}

fn render_report(run: &Value, path: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "run report: {path}");
    let scheme = run.get("scheme").and_then(Value::as_str).unwrap_or("?");
    let flows = run.get("flows").and_then(Value::as_f64).unwrap_or(0.0);
    let completed = run.get("completed").and_then(Value::as_f64).unwrap_or(0.0);
    let sim_ms = run
        .get("sim_time_ms")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let _ = writeln!(
        out,
        "scheme {scheme} | flows {flows:.0} | completed {completed:.0} | sim {sim_ms:.3} ms\n"
    );

    // Counters.
    let counters = counters_of(run);
    let _ = writeln!(out, "== counters ({}) ==", counters.len());
    if counters.is_empty() {
        out.push_str("  (none)\n");
    }
    for (k, v) in &counters {
        let _ = writeln!(out, "  {k:<32} {v:>14}");
    }
    out.push('\n');

    // Telemetry timelines.
    match telemetry_of(run) {
        None => out.push_str("== telemetry ==\n  (absent; re-run with --telemetry)\n"),
        Some(t) => {
            let interval = t.get("interval_ns").and_then(Value::as_f64).unwrap_or(0.0);
            let ticks = t.get("ticks").and_then(Value::as_f64).unwrap_or(0.0);
            let nlinks = series_group(t, "links").len();
            let nflows = series_group(t, "flows").len();
            let _ = writeln!(
                out,
                "== telemetry ({ticks:.0} ticks @ {:.1} µs, {nlinks} links, {nflows} flows) ==",
                interval / 1e3
            );
            let links = top_series(t, "links", "queue");
            if !links.is_empty() {
                let _ = writeln!(out, "  link queue depth (top {} by peak):", links.len());
                for (id, pts) in &links {
                    let (mean, max) = mean_max(pts);
                    let _ = writeln!(
                        out,
                        "    link {id:>4} |{}| peak {} mean {}",
                        timeline(pts, WIDTH),
                        fmt_bytes(max),
                        fmt_bytes(mean as u64)
                    );
                }
                if nlinks > links.len() {
                    let _ = writeln!(out, "    ({} more links not shown)", nlinks - links.len());
                }
            }
            let flows = top_series(t, "flows", "rate_bps");
            if !flows.is_empty() {
                let _ = writeln!(out, "  flow delivery rate (top {} by peak):", flows.len());
                for (id, pts) in &flows {
                    let (mean, max) = mean_max(pts);
                    let _ = writeln!(
                        out,
                        "    flow {id:>4} |{}| peak {} mean {}",
                        timeline(pts, WIDTH),
                        fmt_bps(max),
                        fmt_bps(mean as u64)
                    );
                }
            }
            // PFC pause timelines: only links that were actually paused
            // carry the series, so lossy runs render nothing here.
            let paused = top_series(t, "links", "paused_ns");
            if !paused.is_empty() {
                let _ = writeln!(
                    out,
                    "  pfc pause state (top {} by paused time):",
                    paused.len()
                );
                for (id, ns) in &paused {
                    let total = ns.last().map(|&(_, v)| v).unwrap_or(0);
                    let state = pause_state_of(t, id);
                    let _ = writeln!(
                        out,
                        "    link {id:>4} |{}| paused {}",
                        timeline(&state, WIDTH),
                        fmt_ns(total)
                    );
                }
            }
            let down = t
                .get("fault")
                .map(|f| parse_series(f.get("links_down").unwrap_or(&Value::Null)));
            if let Some(down) = down {
                let (_, max) = mean_max(&down);
                if max > 0 {
                    let _ = writeln!(
                        out,
                        "  links down     |{}| peak {max}",
                        timeline(&down, WIDTH)
                    );
                }
            }
        }
    }
    out.push('\n');

    // Profile breakdown.
    match profile_of(run) {
        None => out.push_str("== profile ==\n  (absent; re-run with --profile)\n"),
        Some(p) => {
            let _ = writeln!(
                out,
                "== profile ({:.3} ms total) ==",
                p.total_ns as f64 / 1e6
            );
            for line in p.render().lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
    }
    out
}

// -------------------------------------------------------------------- diff

fn render_diff(a: &Value, b: &Value, pa: &str, pb: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "diff: A = {pa}  B = {pb}\n");

    // Counters side by side (union of keys; both maps are sorted already).
    let ca = counters_of(a);
    let cb = counters_of(b);
    let mut keys: Vec<&String> = ca.iter().chain(cb.iter()).map(|(k, _)| k).collect();
    keys.sort();
    keys.dedup();
    let _ = writeln!(out, "== counters ==");
    let _ = writeln!(
        out,
        "  {:<32} {:>14} {:>14} {:>10}",
        "counter", "A", "B", "Δ"
    );
    let lookup = |c: &[(String, u64)], k: &str| c.iter().find(|(n, _)| n == k).map(|&(_, v)| v);
    for k in keys {
        let va = lookup(&ca, k);
        let vb = lookup(&cb, k);
        let delta = match (va, vb) {
            (Some(x), Some(y)) => format!("{:+}", y as i128 - x as i128),
            _ => "—".into(),
        };
        let show = |v: Option<u64>| v.map_or("—".into(), |v| v.to_string());
        let _ = writeln!(
            out,
            "  {:<32} {:>14} {:>14} {:>10}",
            k,
            show(va),
            show(vb),
            delta
        );
    }
    out.push('\n');

    // Telemetry series stats side by side.
    let _ = writeln!(out, "== telemetry ==");
    match (telemetry_of(a), telemetry_of(b)) {
        (None, None) => out.push_str("  (absent in both)\n"),
        (ta, tb) => {
            for (group, key, fmt) in [
                ("links", "queue", fmt_bytes as fn(u64) -> String),
                ("flows", "rate_bps", fmt_bps as fn(u64) -> String),
                ("links", "paused_ns", fmt_ns as fn(u64) -> String),
            ] {
                let ga = ta.map(|t| series_group(t, group)).unwrap_or_default();
                let gb = tb.map(|t| series_group(t, group)).unwrap_or_default();
                let mut ids: Vec<&str> = ga.iter().chain(gb.iter()).map(|&(id, _)| id).collect();
                ids.sort_by_key(|id| id.parse::<u64>().unwrap_or(u64::MAX));
                ids.dedup();
                let peak = |g: &[(&str, &Value)], id: &str| {
                    g.iter()
                        .find(|&&(i, _)| i == id)
                        .and_then(|&(_, bundle)| bundle.get(key))
                        .map(|s| mean_max(&parse_series(s)).1)
                };
                // Only ids with the series on at least one side: sparse
                // series (pauses on a lossy run) drop out entirely.
                let rows: Vec<(&str, Option<u64>, Option<u64>)> = ids
                    .into_iter()
                    .map(|id| (id, peak(&ga, id), peak(&gb, id)))
                    .filter(|(_, sa, sb)| sa.is_some() || sb.is_some())
                    .collect();
                if rows.is_empty() {
                    continue;
                }
                let _ = writeln!(out, "  {group}.{key} peaks:");
                for (id, sa, sb) in rows {
                    let show = |v: Option<u64>| v.map_or("—".into(), &fmt);
                    let _ = writeln!(out, "    {:>6}: {:>12}  ->  {:>12}", id, show(sa), show(sb));
                }
            }
        }
    }
    out.push('\n');

    // Profile spans side by side, matched by path.
    let _ = writeln!(out, "== profile ==");
    match (profile_of(a), profile_of(b)) {
        (None, None) => out.push_str("  (absent in both)\n"),
        (pa, pb) => {
            let ra = pa.map(|p| p.rows).unwrap_or_default();
            let rb = pb.map(|p| p.rows).unwrap_or_default();
            let mut paths: Vec<&String> = ra.iter().chain(rb.iter()).map(|r| &r.path).collect();
            paths.sort();
            paths.dedup();
            let _ = writeln!(
                out,
                "  {:<32} {:>12} {:>12} {:>8}",
                "span", "A incl ms", "B incl ms", "ratio"
            );
            for p in paths {
                let fa = ra.iter().find(|r| &r.path == p).map(|r| r.inclusive_ns);
                let fb = rb.iter().find(|r| &r.path == p).map(|r| r.inclusive_ns);
                let ratio = match (fa, fb) {
                    (Some(x), Some(y)) if x > 0 => format!("{:.2}x", y as f64 / x as f64),
                    _ => "—".into(),
                };
                let show =
                    |v: Option<u64>| v.map_or("—".into(), |v| format!("{:.3}", v as f64 / 1e6));
                let _ = writeln!(
                    out,
                    "  {:<32} {:>12} {:>12} {:>8}",
                    p,
                    show(fa),
                    show(fb),
                    ratio
                );
            }
        }
    }
    out
}

// -------------------------------------------------------------------- html

/// Inline-SVG polyline for one series.
fn svg_series(points: &[(u64, u64)], w: u32, h: u32) -> String {
    if points.len() < 2 {
        return format!("<svg width=\"{w}\" height=\"{h}\"></svg>");
    }
    let (t0, t1) = (points[0].0, points[points.len() - 1].0.max(points[0].0 + 1));
    let peak = points.iter().map(|&(_, v)| v).max().unwrap_or(1).max(1);
    let pts: Vec<String> = points
        .iter()
        .map(|&(t, v)| {
            let x = (t - t0) as f64 / (t1 - t0) as f64 * w as f64;
            let y = h as f64 - (v as f64 / peak as f64 * (h as f64 - 2.0)) - 1.0;
            format!("{x:.1},{y:.1}")
        })
        .collect();
    format!(
        "<svg width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\">\
         <polyline fill=\"none\" stroke=\"#2a6fb0\" stroke-width=\"1.5\" points=\"{}\"/></svg>",
        pts.join(" ")
    )
}

fn render_html(run: &Value, path: &str) -> String {
    let mut body = String::new();
    let esc = |s: &str| s.replace('&', "&amp;").replace('<', "&lt;");
    let _ = writeln!(body, "<h1>uno-inspect: {}</h1>", esc(path));
    let _ = writeln!(body, "<pre>{}</pre>", esc(&render_report(run, path)));
    if let Some(t) = telemetry_of(run) {
        let _ = writeln!(body, "<h2>link queue depth</h2>");
        for (id, pts) in top_series(t, "links", "queue") {
            let _ = writeln!(
                body,
                "<div class=\"row\"><span>link {id}</span>{}</div>",
                svg_series(&pts, 640, 80)
            );
        }
        let _ = writeln!(body, "<h2>flow delivery rate</h2>");
        for (id, pts) in top_series(t, "flows", "rate_bps") {
            let _ = writeln!(
                body,
                "<div class=\"row\"><span>flow {id}</span>{}</div>",
                svg_series(&pts, 640, 80)
            );
        }
        let paused = top_series(t, "links", "paused_ns");
        if !paused.is_empty() {
            let _ = writeln!(body, "<h2>pfc pause state</h2>");
            for (id, ns) in paused {
                let total = ns.last().map(|&(_, v)| v).unwrap_or(0);
                let _ = writeln!(
                    body,
                    "<div class=\"row\"><span>link {id} ({})</span>{}</div>",
                    fmt_ns(total),
                    svg_series(&pause_state_of(t, id), 640, 40)
                );
            }
        }
    }
    format!(
        "<!doctype html><html><head><meta charset=\"utf-8\"><title>uno-inspect</title>\
         <style>body{{font-family:monospace;margin:2em}}\
         .row{{display:flex;align-items:center;gap:1em;margin:2px 0}}\
         .row span{{width:6em}}svg{{background:#f4f6f8}}</style>\
         </head><body>{body}</body></html>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_run() -> Value {
        serde_json::parse_value(
            r#"{
              "scheme": "Uno", "flows": 2, "completed": 2, "sim_time_ms": 1.5,
              "manifest": {"counters": {"cc.epochs": 10, "queue.drops": 0}},
              "telemetry": {
                "interval_ns": 1000, "ticks": 3,
                "links": {"1": {"queue": [[0,0],[1000,500],[2000,100]],
                                "phantom": [], "up": [[0,1],[1000,1],[2000,1]]},
                          "2": {"queue": [[0,0],[1000,900],[2000,900]],
                                "phantom": [], "up": [[0,1],[1000,1],[2000,1]],
                                "paused": [[0,0],[1000,1],[2000,0]],
                                "paused_ns": [[0,0],[1000,400],[2000,1300]]}},
                "flows": {"0": {"cwnd": [[0,100]], "rate_bps": [[1000,5000000]],
                                "srtt_ns": [[0,900]], "outstanding": [[0,10]]}},
                "fault": {"active": [], "links_down": []}
              },
              "profile": {"total_ns": 1000,
                "spans": [{"path":"transport","depth":0,"calls":5,
                           "inclusive_ns":1000,"exclusive_ns":1000}]}
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn report_contains_all_sections() {
        let r = render_report(&fake_run(), "test.json");
        assert!(r.contains("== counters (2) =="));
        assert!(r.contains("cc.epochs"));
        assert!(r.contains("link    1"));
        assert!(r.contains("flow    0"));
        assert!(r.contains("transport"));
    }

    #[test]
    fn diff_of_identical_runs_is_flat() {
        let a = fake_run();
        let d = render_diff(&a, &a, "a.json", "a.json");
        assert!(d.contains("+0"));
        assert!(d.contains("1.00x"));
    }

    #[test]
    fn timeline_scales_to_peak() {
        let line = timeline(&[(0, 0), (50, 10), (100, 0)], 10);
        assert_eq!(line.len(), 10);
        assert!(line.contains('@'));
        assert!(line.starts_with(' '));
    }

    #[test]
    fn pause_timelines_render_only_for_paused_links() {
        let r = render_report(&fake_run(), "test.json");
        assert!(r.contains("pfc pause state (top 1 by paused time):"));
        assert!(r.contains("link    2") && r.contains("paused 1.3 µs"));
        // Strip link 2 (the only paused link): the section must vanish so
        // lossy-run reports are byte-identical to the pre-PFC renderer.
        let mut lossy = fake_run();
        if let Value::Object(run) = &mut lossy {
            if let Some((_, Value::Object(t))) = run.iter_mut().find(|(k, _)| k == "telemetry") {
                if let Some((_, Value::Object(links))) = t.iter_mut().find(|(k, _)| k == "links") {
                    links.retain(|(k, _)| k != "2");
                }
            }
        }
        assert!(!render_report(&lossy, "test.json").contains("pfc pause"));
        assert!(!render_html(&lossy, "test.json").contains("pfc pause"));
    }

    #[test]
    fn missing_sections_render_placeholders() {
        let run = serde_json::parse_value(r#"{"scheme":"Uno"}"#).unwrap();
        let r = render_report(&run, "x.json");
        assert!(r.contains("re-run with --telemetry"));
        assert!(r.contains("re-run with --profile"));
    }

    #[test]
    fn html_is_self_contained() {
        let h = render_html(&fake_run(), "test.json");
        assert!(h.starts_with("<!doctype html>"));
        assert!(h.contains("<svg"));
        assert!(h.contains("polyline"));
        assert!(h.contains("<h2>pfc pause state</h2>"));
        assert!(h.contains("link 2 (1.3 µs)"));
    }
}
