//! What one run prints: a line per metric with its unit and sample count,
//! then, as the last line, the result object read by whoever runs the
//! benchmark: `correct`, `attempted`, `failed` and `metrics`.

use crate::stats::{median, percentile};
use crate::trace::Reduced;
use std::fmt::Write as _;
use std::time::Duration;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained (percentile used, sample count).
    pub note: String,
}

#[derive(Default)]
pub struct Outcome {
    /// Every reply matched its oracle.
    pub correct: bool,
    pub attempted: u64,
    /// `ERR` replies plus partial answers.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// Adds `<rate>` (operations per second) and `<prefix>_p50_ms` and
    /// `<prefix>_p99_ms` for one timed series: every round trip `ms` made
    /// within `window`. When the samples are too few for p99, the highest
    /// percentile they support is reported and named in the note (see
    /// [`percentile`]).
    pub fn push_series(&mut self, rate: &str, prefix: &str, ms: &[f64], window: Duration) {
        let mut sorted = ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let per_s = n as f64 / window.as_secs_f64();
        self.push(
            rate,
            per_s,
            "1/s",
            format!("n={n} over {:.3} s", window.as_secs_f64()),
        );
        for want in [50, 99] {
            let (value, note) = match percentile(&sorted, want) {
                Some(t) => (t.value, format!("p{} of n={n}", t.pct)),
                None => (f64::NAN, "too few samples".to_string()),
            };
            self.push(&format!("{prefix}_p{want}_ms"), value, "ms", note);
        }
    }

    /// `setup_s`: the median of several open-to-ready times.
    pub fn push_setup(&mut self, setups: &[f64]) {
        let note = format!("median of n={} set-ups", setups.len());
        self.push("setup_s", median(setups), "s", note);
    }

    /// Prints the per-metric lines and, last, the result object. Returns
    /// false when a metric has no finite value (too few samples).
    pub fn print(&self, header: &str) -> bool {
        println!("{header}");
        let ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "  {:<36} {:>14} {:<6} ({} of {} attempted operations)",
            "fail_ratio", ratio, "ratio", self.failed, self.attempted
        );
        let mut json = String::new();
        let mut finite = true;
        for m in &self.metrics {
            println!(
                "  {:<36} {:>14.6} {:<6} ({})",
                m.name, m.value, m.unit, m.note
            );
            finite &= m.value.is_finite();
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        if !finite {
            eprintln!("perfbench: a metric has too few samples to report");
            return false;
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct, self.attempted, self.failed
        );
        true
    }
}

/// How a per-layer metric is read off a reduced trace.
enum Src {
    /// Mean self time of a span, scaled from ns.
    SelfTime(&'static str, f64),
    /// Mean of a counter per recorded value.
    Mean(&'static str),
    /// Sum of a counter.
    Sum(&'static str),
    /// Sum of one counter over the sum of others.
    Ratio(&'static str, &'static [&'static str]),
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// Every per-layer metric: name, unit, and its source in the trace.
#[rustfmt::skip]
const PER_LAYER: &[(&str, &str, Src)] = &[
    ("server.net.ping_us", "us", Src::SelfTime("server.net.ping", US)),
    ("server.proto.parse_us", "us", Src::SelfTime("server.proto.parse", US)),
    ("server.admission.wait_us", "us", Src::SelfTime("server.admission.wait", US)),
    ("server.admission.sheds", "count", Src::Sum("server.admission.sheds")),
    ("server.epoch.pin_us", "us", Src::SelfTime("server.epoch.pin", US)),
    ("server.buffer_us", "us", Src::SelfTime("server.buffer", US)),
    ("server.commit.stage_ms", "ms", Src::SelfTime("server.commit.stage", MS)),
    ("server.epoch.publish_us", "us", Src::SelfTime("server.epoch.publish", US)),
    ("core.engine_clone_us", "us", Src::SelfTime("core.engine_clone", US)),
    ("core.answer_encode_us", "us", Src::SelfTime("core.answer_encode", US)),
    ("parser.atom_us", "us", Src::SelfTime("parser.atom", US)),
    ("transform.rewrite_us.alexander", "us", Src::SelfTime("transform.rewrite.alexander", US)),
    ("transform.rewrite_us.magic", "us", Src::SelfTime("transform.rewrite.magic", US)),
    ("transform.rewrite_us.supmagic", "us", Src::SelfTime("transform.rewrite.supmagic", US)),
    ("eval.fixpoint_ms.alexander", "ms", Src::SelfTime("eval.fixpoint.alexander", MS)),
    ("eval.fixpoint_ms.magic", "ms", Src::SelfTime("eval.fixpoint.magic", MS)),
    ("eval.fixpoint_ms.supmagic", "ms", Src::SelfTime("eval.fixpoint.supmagic", MS)),
    ("eval.fixpoint_ms.seminaive", "ms", Src::SelfTime("eval.fixpoint.seminaive", MS)),
    ("eval.fixpoint_ms.conditional", "ms", Src::SelfTime("eval.fixpoint.conditional", MS)),
    ("eval.new_facts", "count", Src::Mean("eval.new_facts")),
    ("eval.firings", "count", Src::Mean("eval.firings")),
    ("eval.probes", "count", Src::Mean("eval.probes")),
    ("eval.tuples_considered", "count", Src::Mean("eval.tuples_considered")),
    ("eval.iterations", "count", Src::Mean("eval.iterations")),
    ("eval.useful_ratio", "ratio", Src::Ratio("eval.new_facts", &["eval.new_facts", "eval.duplicate_facts"])),
    ("eval.rows_per_block", "rows", Src::Ratio("eval.block_rows", &["eval.blocks"])),
    ("eval.maint_ms.acyclic", "ms", Src::SelfTime("eval.maint.acyclic", MS)),
    ("eval.maint_ms.cyclic", "ms", Src::SelfTime("eval.maint.cyclic", MS)),
    ("eval.maint_ms.counted", "ms", Src::SelfTime("eval.maint.counted", MS)),
    ("eval.maint.added", "count", Src::Mean("eval.maint.added")),
    ("eval.maint.overdeleted", "count", Src::Mean("eval.maint.overdeleted")),
    ("eval.maint.rederived", "count", Src::Mean("eval.maint.rederived")),
    ("eval.maint.waste_ratio", "ratio", Src::Ratio("eval.maint.rederived", &["eval.maint.overdeleted"])),
    ("eval.materialize_ms", "ms", Src::SelfTime("eval.materialize", MS)),
    ("topdown.oldt_ms", "ms", Src::SelfTime("topdown.oldt", MS)),
    ("topdown.qsqr_ms", "ms", Src::SelfTime("topdown.qsqr", MS)),
    ("topdown.calls", "count", Src::Mean("topdown.calls")),
    ("topdown.answers", "count", Src::Mean("topdown.answers")),
    ("topdown.resolution_steps", "count", Src::Mean("topdown.resolution_steps")),
    ("topdown.suspensions", "count", Src::Mean("topdown.suspensions")),
    ("durable.wal_append_ms", "ms", Src::SelfTime("durable.wal_append", MS)),
    ("durable.wal_bytes_per_record", "bytes", Src::Ratio("durable.wal_bytes", &["durable.wal_records"])),
    ("durable.snapshot_write_ms", "ms", Src::SelfTime("durable.snapshot_write", MS)),
    ("durable.snapshot_read_ms", "ms", Src::SelfTime("durable.snapshot_read", MS)),
    ("durable.wal_read_ms", "ms", Src::SelfTime("durable.wal_read", MS)),
    ("durable.replay_ms", "ms", Src::SelfTime("durable.replay", MS)),
    ("storage.edb_facts", "count", Src::Mean("storage.edb_facts")),
    ("storage.idb_facts", "count", Src::Mean("storage.idb_facts")),
    ("trace.overhead_ratio", "ratio", Src::Mean("trace.overhead_ratio")),
];

/// Adds every per-layer metric read off the workload's trace `r`, or off
/// the layer sweep's trace `swept` where the workload never reaches the
/// layer.
pub fn push_per_layer(out: &mut Outcome, r: &Reduced, swept: &Reduced) {
    for (name, unit, src) in PER_LAYER {
        let (value, n) = read(r, src);
        let (value, note) = if n > 0 {
            (value, format!("n={n}"))
        } else {
            let (value, n) = read(swept, src);
            (
                value,
                format!("layer sweep, n={n}: not reached by this workload"),
            )
        };
        out.push(name, value, unit, note);
    }
}

/// A metric's value and the number of samples it rests on.
fn read(r: &Reduced, src: &Src) -> (f64, u64) {
    match *src {
        Src::SelfTime(span, scale) => (
            r.mean_self_ns(span) / scale,
            r.spans.get(span).map_or(0, |s| s.0),
        ),
        Src::Mean(c) => (r.mean(c), r.counts.get(c).map_or(0, |s| s.0)),
        Src::Sum(c) => (r.sum(c), r.counts.get(c).map_or(0, |s| s.0)),
        Src::Ratio(num, den) => {
            let d: f64 = den.iter().map(|c| r.sum(c)).sum();
            let v = if d > 0.0 { r.sum(num) / d } else { 0.0 };
            (v, r.counts.get(num).map_or(0, |s| s.0))
        }
    }
}
