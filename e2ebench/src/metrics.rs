//! The metric catalogue and the result line.
//!
//! The names here are the names `BENCHMARK.json` declares; a test
//! keeps the two in step.

use crate::stats;
use std::fmt::Write as _;

/// A metric's declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The standard measure ids, registry order.
pub const MEASURE_IDS: [&str; 10] = [
    "class-change-count",
    "property-change-count",
    "neighbourhood-change-count-r1",
    "neighbourhood-change-count-r2",
    "betweenness-shift",
    "bridging-shift",
    "degree-shift",
    "in-centrality-shift",
    "out-centrality-shift",
    "relevance-shift",
];

/// Metrics of the untraced run (`--trace 0`).
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("response_p50_ms", "ms", "lower"),
        def("peak_rss_mb", "MiB", "lower"),
    ]
}

/// Metrics of the traced run (`--trace 1`).
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = vec![
        def("serve.handler_p50_ms", "ms", "lower"),
        def("serve.handler_p99_ms", "ms", "lower"),
        def("serve.edge_overhead_p50_ms", "ms", "lower"),
        def("serve.edge_overhead_p99_ms", "ms", "lower"),
        def("serve.connections_accepted", "count", "lower"),
        def("serve.queue_rejected", "count", "lower"),
        def("serve.admission_rejected", "count", "lower"),
        def("adapt.serve_p50_us", "us", "lower"),
        def("adapt.serve_p99_us", "us", "lower"),
        def("adapt.feedback_sync_ms", "ms", "lower"),
        def("adapt.events_per_batch", "events/batch", "higher"),
        def("adapt.feedback_rejected", "count", "lower"),
        def("core.profile_expand_p50_us", "us", "lower"),
        def("core.profile_expand_p99_us", "us", "lower"),
        def("core.select_mmr_us", "us", "lower"),
        def("core.cache_hit_ratio", "ratio", "higher"),
        def("core.cache_lookups", "count", "lower"),
        def("core.cache_invalidations", "count", "lower"),
        def("measures.context_build_ms", "ms", "lower"),
    ];
    out.extend(
        MEASURE_IDS
            .iter()
            .map(|id| def(format!("measures.compute_ms.{id}"), "ms", "lower")),
    );
    out.extend([
        def("graphalg.betweenness_ms", "ms", "lower"),
        def("windows.advance_ms", "ms", "lower"),
        def("windows.warm_wait_ms", "ms", "lower"),
        def("windows.publishes_per_epoch", "count/epoch", "lower"),
        def("windows.ring_fallbacks", "count", "lower"),
        def("stream.ingest_self_ms", "ms", "lower"),
        def("stream.commit_self_ms", "ms", "lower"),
        def("stream.publish_self_ms", "ms", "lower"),
        def("stream.events_per_epoch", "events/epoch", "higher"),
        def("stream.log_high_water", "count", "lower"),
        def("stream.producer_waits", "count", "lower"),
        def("versioning.delta_computations", "count", "lower"),
        def("obs.trace_overhead_pct", "%", "lower"),
        def("obs.trace_overhead_fresh_pct", "%", "lower"),
        def("gen.lag_p99_ms", "ms", "lower"),
        def("gen.sent", "count", "higher"),
        def("gen.ok", "count", "higher"),
        def("gen.failed", "count", "lower"),
        def("fresh_p50_ms", "ms", "lower"),
        def("fresh_tail_ms", "ms", "lower"),
        def("error_rate", "ratio", "lower"),
        def("latency_p50_ms", "ms", "lower"),
        def("latency_p90_ms", "ms", "lower"),
        def("latency_p99_ms", "ms", "lower"),
        def("capacity_rps", "req/s", "higher"),
    ]);
    out
}

/// Measured values of one run, in declaration order.
#[derive(Debug, Default)]
pub struct Values {
    values: Vec<(String, f64, &'static str)>,
}

impl Values {
    /// Record `name`, which must be declared in `defs`.
    pub fn set(&mut self, defs: &[MetricDef], name: &str, value: f64) {
        let def = defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((def.name.clone(), value, def.unit)),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _, _)| n == name).map(|v| v.1)
    }

    /// Names declared in `defs` but never set.
    pub fn missing(&self, defs: &[MetricDef]) -> Vec<String> {
        defs.iter()
            .filter(|d| self.get(&d.name).is_none())
            .map(|d| d.name.clone())
            .collect()
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.values {
            let _ = writeln!(out, "  {name:<44} {value:>14.4} {unit}");
        }
        out
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, value, unit)| {
                debug_assert!(stats::valid_name(name) && stats::valid_unit(unit));
                format!(r#""{name}":{{"value":{value:?},"unit":"{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_serve::json::{self, Json};

    #[test]
    fn every_declared_name_and_unit_is_valid_and_unique() {
        let mut all = end_to_end();
        all.extend(per_layer());
        for d in &all {
            assert!(stats::valid_name(&d.name), "{}", d.name);
            assert!(stats::valid_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(d.better == "lower" || d.better == "higher");
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric names");
    }

    #[test]
    fn the_result_line_is_json_with_every_value() {
        let defs = end_to_end();
        let mut v = Values::default();
        v.set(&defs, "setup_s", 0.812_734_5);
        v.set(&defs, "peak_rss_mb", 36.5);
        let line = v.result_line(true, 1000, 0);
        let doc = json::parse(line.as_bytes()).expect("valid json");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1000));
        let m = doc.get("metrics").expect("metrics");
        let setup = m.get("setup_s").expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.812_734_5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(v.missing(&defs), vec!["response_p50_ms".to_string()]);
    }

    /// Serialise a parsed document back to JSON text.
    fn render(doc: &Json, out: &mut String) {
        match doc {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => json::push_f64(*n, out),
            Json::Str(s) => json::push_str_lit(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render(item, out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::push_str_lit(key, out);
                    out.push(':');
                    render(value, out);
                }
                out.push('}');
            }
        }
    }

    fn keys(doc: &Json) -> Vec<&str> {
        match doc {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    fn str_of<'a>(doc: &'a Json, key: &str) -> &'a str {
        doc.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} must be a string"))
    }

    /// The metric list under `key`, checked entry by entry against the
    /// catalogue; returns the declared bounds.
    fn declared(doc: &Json, key: &str, catalogue: &[MetricDef], bounded: bool) -> Vec<f64> {
        let list = doc.get(key).and_then(Json::as_arr).expect("metric list");
        assert_eq!(list.len(), catalogue.len(), "{key}: one entry per metric");
        list.iter()
            .zip(catalogue)
            .map(|(entry, def)| {
                let expected = if bounded {
                    vec!["name", "unit", "better", "bound"]
                } else {
                    vec!["name", "unit", "better"]
                };
                assert_eq!(keys(entry), expected, "{key} entry keys");
                assert_eq!(str_of(entry, "name"), def.name);
                assert_eq!(str_of(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(str_of(entry, "better"), def.better, "{}", def.name);
                entry.get("bound").and_then(Json::as_f64).unwrap_or(0.0)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_round_trips_and_matches_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text.as_bytes()).expect("BENCHMARK.json parses");
        let mut again = String::new();
        render(&doc, &mut again);
        assert_eq!(
            json::parse(again.as_bytes()).expect("re-parses"),
            doc,
            "round trip"
        );
        assert!(text.len() <= 64 * 1024);

        assert_eq!(
            keys(&doc),
            vec![
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let command = doc
            .get("command")
            .and_then(Json::as_arr)
            .expect("command list");
        assert!(!command.is_empty() && command.len() <= 32);
        for part in command {
            let part = part.as_str().expect("command strings");
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
        let paths = doc.get("paths").and_then(Json::as_arr).expect("paths list");
        assert_eq!(
            paths.iter().filter_map(Json::as_str).collect::<Vec<_>>(),
            vec!["e2ebench"]
        );
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .expect("whole seconds");
        assert!((1..=60).contains(&seconds));

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
        let expected: Vec<&str> = crate::workload::KINDS.iter().map(|k| k.name()).collect();
        assert_eq!(names, expected);
        for w in workloads {
            assert_eq!(keys(w), vec!["name", "why"]);
            let why = str_of(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }

        let bounds = declared(&doc, "end_to_end", &end_to_end(), true);
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
        let setup = end_to_end()
            .iter()
            .position(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(
            bounds.iter().all(|&b| b <= bounds[setup]),
            "setup_s has the largest bound"
        );
        declared(&doc, "per_layer", &per_layer(), false);
    }

    #[test]
    fn the_baseline_is_strict_json_over_declared_metrics() {
        let doc = json::parse(include_str!("../baseline.json").as_bytes()).expect("baseline.json");
        for (section, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let workloads = doc
                .get(section)
                .and_then(|s| s.get("workloads"))
                .expect("a section per kind of run");
            for w in keys(workloads) {
                assert!(
                    crate::workload::Kind::parse(w).is_some(),
                    "unknown workload {w}"
                );
                let figures = workloads.get(w).expect("workload");
                let names = keys(figures);
                for def in &defs {
                    assert!(
                        names.contains(&def.name.as_str()),
                        "{section}/{w}: no {}",
                        def.name
                    );
                }
            }
        }
    }

    #[test]
    fn the_layer_map_names_real_metrics_and_workloads() {
        let doc = json::parse(include_str!("../layer_map.json").as_bytes()).expect("layer map");
        let layers = doc.get("layers").expect("layers");
        let mapped = keys(layers);
        let catalogue: Vec<String> = per_layer().into_iter().map(|d| d.name).collect();
        assert_eq!(
            mapped,
            catalogue.iter().map(String::as_str).collect::<Vec<_>>()
        );
        let mut targets: Vec<String> = end_to_end().into_iter().map(|d| d.name).collect();
        // The user-facing metrics the contract keeps unbounded (see
        // README) are targets too.
        targets.extend(
            [
                "latency_p50_ms",
                "latency_p90_ms",
                "latency_p99_ms",
                "capacity_rps",
                "fresh_p50_ms",
                "fresh_tail_ms",
                "error_rate",
                "none",
            ]
            .map(String::from),
        );
        for name in mapped {
            let entry = layers.get(name).expect("entry");
            for target in entry.get("moves").and_then(Json::as_arr).expect("moves") {
                let target = target.as_str().expect("metric name");
                assert!(
                    targets.iter().any(|t| t == target),
                    "{name} moves unknown {target}"
                );
            }
            for w in entry
                .get("workloads")
                .and_then(Json::as_arr)
                .expect("workloads")
            {
                let w = w.as_str().expect("workload name");
                assert!(
                    crate::workload::Kind::parse(w).is_some(),
                    "{name}: unknown workload {w}"
                );
            }
        }
    }
}
