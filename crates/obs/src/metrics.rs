//! The metrics registry: typed, labeled counter/gauge/histogram
//! snapshots behind one schema-versioned, JSON-exportable report.
//!
//! This is a *snapshot* registry, not a live instrumented-process
//! registry: producers accumulate values into a [`Registry`] after (or
//! during) the work and export a [`MetricsReport`] — there are no
//! atomics on hot paths and nothing to register up front. Readers on
//! the other side of a file or socket reject reports from a different
//! [`METRICS_SCHEMA_VERSION`] rather than silently misreading them.

use sfence_harness::Json;
use std::collections::BTreeMap;
use std::io::Read;

/// Version tag stamped into every serialized [`MetricsReport`]. Bump
/// on any incompatible change to the report shape or to the meaning
/// of a published metric name.
///
/// v2: histograms carry log-scale bucket counts (`buckets`) so
/// readers can recover p50/p95/p99 without the raw samples.
pub const METRICS_SCHEMA_VERSION: u64 = 2;

/// Number of log-scale histogram buckets. Bucket `i` counts
/// observations `v <= bucket_bound(i)`; the last bucket is unbounded.
pub const HIST_BUCKETS: usize = 32;

/// Upper bound of bucket `i`: powers of two from 2^-10 (~1µs when the
/// unit is ms) through 2^20 (~17min in ms). The final bucket is +Inf.
pub fn bucket_bound(i: usize) -> f64 {
    if i + 1 >= HIST_BUCKETS {
        f64::INFINITY
    } else {
        (2.0f64).powi(i as i32 - 10)
    }
}

/// The bucket an observation lands in: the first whose bound holds it.
fn bucket_index(v: f64) -> usize {
    (0..HIST_BUCKETS)
        .find(|&i| v <= bucket_bound(i))
        .unwrap_or(HIST_BUCKETS - 1)
}

/// Summary of a distribution: count/sum/mean, the observed range, and
/// log-scale bucket counts for approximate quantiles — no sample
/// storage, so a histogram series is fixed-size no matter how many
/// observations it absorbs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.buckets[bucket_index(v)] += 1;
    }

    /// Fold another snapshot into this one (what the registry does
    /// when the same series is observed from two sources).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile (`0.0..=1.0`) from the bucket counts: the
    /// upper bound of the bucket holding the q-th observation, clamped
    /// to the observed `[min, max]` range so degenerate distributions
    /// report exact values and the unbounded bucket reports `max`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return bucket_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// A histogram series that stores only its occupied buckets. It
/// observes exactly like [`HistogramSnapshot`] and expands into one on
/// demand; a producer that keeps thousands of small series alive (one
/// per retained campaign, say) pays for the buckets they use rather
/// than for all 32.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseHistogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// `(bucket index, count)`, ascending by index.
    buckets: Vec<(u8, u64)>,
}

impl SparseHistogram {
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let idx = bucket_index(v) as u8;
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(at) => self.buckets[at].1 += 1,
            Err(at) => self.buckets.insert(at, (idx, 1)),
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The dense snapshot these observations would have produced.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut h = HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: [0; HIST_BUCKETS],
        };
        for &(i, n) in &self.buckets {
            h.buckets[i as usize] = n;
        }
        h
    }
}

/// A metric's value: monotonically accumulated count, point-in-time
/// level, or distribution summary.
///
/// The histogram's fixed bucket array lives out of line, so a counter
/// or gauge costs a word or two instead of carrying 32 buckets it
/// never uses — a status report holds far more gauges than
/// histograms.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(Box<HistogramSnapshot>),
}

impl MetricValue {
    /// The stable type tag used in the JSON export.
    pub fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One named, labeled metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    /// Label pairs, sorted by key (the registry sorts on insert so
    /// label order can never distinguish two otherwise-equal series).
    pub labels: Vec<(String, String)>,
    pub value: MetricValue,
}

/// A series' identity: its name and its label pairs sorted by key.
/// Ordering keys this way is exactly the `(name, labels)` order every
/// snapshot is sorted by.
type SeriesKey = (String, Vec<(String, String)>);

fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

/// An in-memory collection of metrics. Series identity is
/// `(name, labels)`; repeated writes to the same series accumulate
/// (counters add, gauges overwrite, histograms merge observations).
///
/// Series are indexed by their sorted `(name, labels)` key, so a
/// write is a logarithmic lookup rather than a scan over every series
/// — a coordinator's status report holds a handful of series per
/// retained campaign — and a snapshot is already in export order.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    series: BTreeMap<SeriesKey, MetricValue>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn series(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        init: MetricValue,
    ) -> &mut MetricValue {
        self.series.entry(series_key(name, labels)).or_insert(init)
    }

    /// Add `v` to a counter series (creating it at zero).
    ///
    /// Panics if the series already exists with a different type —
    /// reusing one name for a counter and a gauge is a producer bug,
    /// not a data condition.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        match self.series(name, labels, MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += v,
            other => panic!("metric {name:?} is a {}, not a counter", other.type_name()),
        }
    }

    /// Set a gauge series to `v` (last write wins).
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        match self.series(name, labels, MetricValue::Gauge(0.0)) {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("metric {name:?} is a {}, not a gauge", other.type_name()),
        }
    }

    /// Record one observation into a histogram series.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.histogram(name, labels).observe(v);
    }

    fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> &mut HistogramSnapshot {
        match self.series(name, labels, MetricValue::Histogram(Box::default())) {
            MetricValue::Histogram(h) => h,
            other => panic!(
                "metric {name:?} is a {}, not a histogram",
                other.type_name()
            ),
        }
    }

    /// Read back a counter (0 if absent); test and display helper.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.find(name, labels) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Read back a gauge (`None` if absent).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.find(name, labels) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Read back a histogram snapshot (`None` if absent).
    pub fn histogram_value(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        match self.find(name, labels) {
            Some(MetricValue::Histogram(h)) => Some(**h),
            _ => None,
        }
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.series.get(&series_key(name, labels))
    }

    /// Fold every series of `other` into this registry under the
    /// usual accumulation rules (counters add, gauges overwrite,
    /// histograms merge). Lets a component keep long-lived histogram
    /// series in a side registry and splice them into each snapshot
    /// it publishes.
    pub fn absorb(&mut self, other: &Registry) {
        for ((name, labels), value) in &other.series {
            let labels: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            match value {
                MetricValue::Counter(c) => self.counter(name, &labels, *c),
                MetricValue::Gauge(g) => self.gauge(name, &labels, *g),
                MetricValue::Histogram(h) => self.histogram(name, &labels).merge(h),
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Freeze the registry into a report: metrics sorted by
    /// `(name, labels)` so serialization is deterministic regardless
    /// of insertion order.
    pub fn snapshot(&self, produced_by: &str) -> MetricsReport {
        self.clone().into_snapshot(produced_by)
    }

    /// [`Registry::snapshot`] for a registry built only to be
    /// reported: the series move into the report instead of being
    /// copied.
    pub fn into_snapshot(self, produced_by: &str) -> MetricsReport {
        MetricsReport {
            schema_version: METRICS_SCHEMA_VERSION,
            produced_by: produced_by.to_string(),
            metrics: self
                .series
                .into_iter()
                .map(|((name, labels), value)| Metric {
                    name,
                    labels,
                    value,
                })
                .collect(),
        }
    }
}

/// A frozen, serializable set of metrics: what crosses files and
/// sockets (the dist protocol's `Status` frame carries one).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    pub schema_version: u64,
    /// Which component produced the report (e.g. `"coordinator"`,
    /// `"sfence-sweep"`).
    pub produced_by: String,
    pub metrics: Vec<Metric>,
}

impl MetricsReport {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema_version", self.schema_version)
            .field("produced_by", self.produced_by.as_str())
            .field(
                "metrics",
                Json::Arr(self.metrics.iter().map(metric_to_json).collect()),
            )
    }

    /// Parse report JSON text from a byte stream one metric at a
    /// time: each metric is parsed as soon as it has arrived, so only
    /// the unparsed tail of the input is ever buffered and the
    /// transient JSON tree is one metric's — a reader of a large
    /// report never holds its text, or its tree, beside its metrics.
    /// Same validation as [`MetricsReport::from_json`].
    pub fn from_json_reader(input: impl Read) -> Result<MetricsReport, String> {
        let mut text = TextStream {
            input,
            buf: Vec::new(),
            pos: 0,
        };
        let mut header = Json::obj();
        let mut metrics = None;
        text.expect(b'{')?;
        let mut more = text.peek()? != b'}';
        while more {
            let key = text.string()?;
            text.expect(b':')?;
            if key == "metrics" {
                text.expect(b'[')?;
                let mut parsed = Vec::new();
                while text.peek()? != b']' {
                    parsed.push(metric_from_json(&text.value()?)?);
                    if text.peek()? == b',' {
                        text.pos += 1;
                    }
                }
                text.pos += 1;
                metrics = Some(parsed);
            } else {
                let doc = text.value()?;
                header = header.field(&key, doc);
            }
            more = match text.peek()? {
                b',' => true,
                b'}' => false,
                other => return Err(format!("expected ',' or '}}', got {:?}", other as char)),
            };
            text.pos += 1;
        }
        text.expect_end()?;
        header = header.field("metrics", Json::Arr(Vec::new()));
        let mut report = MetricsReport::from_json(&header)?;
        report.metrics = metrics.ok_or("missing metrics")?;
        Ok(report)
    }

    /// Parse a report, rejecting any schema version other than
    /// [`METRICS_SCHEMA_VERSION`].
    pub fn from_json(json: &Json) -> Result<MetricsReport, String> {
        let version = json
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != METRICS_SCHEMA_VERSION {
            return Err(format!(
                "metrics schema_version {version} (supported: {METRICS_SCHEMA_VERSION})"
            ));
        }
        Ok(MetricsReport {
            schema_version: version,
            produced_by: json
                .get("produced_by")
                .and_then(Json::as_str)
                .ok_or("missing produced_by")?
                .to_string(),
            metrics: json
                .get("metrics")
                .and_then(Json::as_arr)
                .ok_or("missing metrics")?
                .iter()
                .map(metric_from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Fetch one series.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels == labels)
    }

    /// Sorted, de-duplicated values of one label key across every
    /// series — e.g. `label_values("campaign")` lists the campaigns a
    /// coordinator status frame covers, `label_values("worker")` its
    /// workers.
    pub fn label_values(&self, key: &str) -> Vec<&str> {
        let mut values: Vec<&str> = self
            .metrics
            .iter()
            .flat_map(|m| m.labels.iter())
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect();
        values.sort_unstable();
        values.dedup();
        values
    }

    /// A plain-text rendering, one metric per line, for CLI display.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&m.name);
            if !m.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in m.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(k);
                    out.push('=');
                    out.push_str(v);
                }
                out.push('}');
            }
            match &m.value {
                MetricValue::Counter(c) => out.push_str(&format!(" {c}\n")),
                MetricValue::Gauge(g) => out.push_str(&format!(" {g:.3}\n")),
                MetricValue::Histogram(h) => out.push_str(&format!(
                    " count={} mean={:.3} min={:.3} max={:.3} p50={:.3} p95={:.3} p99={:.3}\n",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max,
                    h.p50(),
                    h.p95(),
                    h.p99(),
                )),
            }
        }
        out
    }
}

/// The compact JSON text of a report (current schema) holding
/// `metrics`, which must already be in export order — sorted by
/// `(name, labels)`, as [`Registry::snapshot`] leaves them. Byte for
/// byte [`MetricsReport::to_json`]'s rendering, produced one metric
/// at a time, so a producer can stream a large report out of its own
/// state without materializing it.
pub fn report_json_text(produced_by: &str, metrics: impl IntoIterator<Item = Metric>) -> String {
    let mut out = Json::obj()
        .field("schema_version", METRICS_SCHEMA_VERSION)
        .field("produced_by", produced_by)
        .to_string_compact();
    out.pop(); // reopen the object for the metrics array
    out.push_str(",\"metrics\":[");
    for (i, m) in metrics.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&metric_to_json(&m).to_string_compact());
    }
    out.push_str("]}");
    out
}

/// JSON text arriving from a reader, consumed front to back: enough
/// structure to walk a report's top-level object and its metrics
/// array, handing each member value to the real parser whole.
struct TextStream<R> {
    input: R,
    /// Unconsumed input from `pos` on; the consumed prefix is
    /// dropped as the buffer refills.
    buf: Vec<u8>,
    pos: usize,
}

impl<R: Read> TextStream<R> {
    /// Read more input; false at end of input.
    fn fill(&mut self) -> Result<bool, String> {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        let n = loop {
            match self.input.read(&mut chunk) {
                Ok(n) => break n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read report: {e}")),
            }
        };
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n > 0)
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Result<u8, String> {
        loop {
            while self.pos < self.buf.len() && self.buf[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos < self.buf.len() {
                return Ok(self.buf[self.pos]);
            }
            if !self.fill()? {
                return Err("truncated report JSON".into());
            }
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        match self.peek()? {
            b if b == byte => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected {:?}, got {:?}",
                byte as char, other as char
            )),
        }
    }

    /// Nothing but whitespace may follow the document.
    fn expect_end(&mut self) -> Result<(), String> {
        loop {
            if !self.buf[self.pos..].iter().all(u8::is_ascii_whitespace) {
                return Err("trailing data after the report".into());
            }
            self.pos = self.buf.len();
            if !self.fill()? {
                return Ok(());
            }
        }
    }

    /// Scan from `pos` until `done(byte, depth, in_string)` holds,
    /// reading more input as needed; returns that index.
    fn scan_to(&mut self, done: impl Fn(u8, usize, bool) -> bool) -> Result<usize, String> {
        let (mut i, mut depth, mut in_str) = (self.pos, 0usize, false);
        loop {
            while i < self.buf.len() {
                let b = self.buf[i];
                if done(b, depth, in_str) {
                    return Ok(i);
                }
                match (in_str, b) {
                    (true, b'\\') => i += 1,
                    (_, b'"') => in_str = !in_str,
                    (false, b'{' | b'[') => depth += 1,
                    (false, b'}' | b']') => depth = depth.saturating_sub(1),
                    _ => {}
                }
                i += 1;
            }
            let offset = self.pos;
            if !self.fill()? {
                return Err("truncated report JSON".into());
            }
            i -= offset;
        }
    }

    fn parse(&mut self, end: usize) -> Result<Json, String> {
        let text = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|e| format!("report is not UTF-8: {e}"))?;
        let doc = sfence_harness::json::parse(text).map_err(|e| format!("bad report JSON: {e}"))?;
        self.pos = end;
        Ok(doc)
    }

    /// One object key.
    fn string(&mut self) -> Result<String, String> {
        if self.peek()? != b'"' {
            return Err("expected an object key".into());
        }
        // The closing quote is the first one met inside the string.
        let end = self.scan_to(|b, _, in_str| b == b'"' && in_str)?;
        match self.parse(end + 1)? {
            Json::Str(key) => Ok(key),
            _ => Err("expected an object key".into()),
        }
    }

    /// One member or element value: everything up to the `,` or
    /// closing bracket that ends it.
    fn value(&mut self) -> Result<Json, String> {
        self.peek()?;
        let end = self
            .scan_to(|b, depth, in_str| !in_str && depth == 0 && matches!(b, b',' | b'}' | b']'))?;
        self.parse(end)
    }
}

fn metric_to_json(m: &Metric) -> Json {
    let mut labels = Json::obj();
    for (k, v) in &m.labels {
        labels = labels.field(k, v.as_str());
    }
    let base = Json::obj()
        .field("name", m.name.as_str())
        .field("labels", labels)
        .field("type", m.value.type_name());
    match &m.value {
        MetricValue::Counter(c) => base.field("value", *c),
        MetricValue::Gauge(g) => base.field("value", *g),
        MetricValue::Histogram(h) => base
            .field("count", h.count)
            .field("sum", h.sum)
            .field("min", h.min)
            .field("max", h.max)
            .field(
                "buckets",
                Json::Arr(h.buckets.iter().map(|&b| Json::UInt(b)).collect()),
            ),
    }
}

fn metric_from_json(json: &Json) -> Result<Metric, String> {
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .ok_or("metric missing name")?
        .to_string();
    let labels = match json.get("labels") {
        Some(Json::Obj(fields)) => {
            let mut labels: Vec<(String, String)> = fields
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|v| (k.clone(), v.to_string()))
                        .ok_or_else(|| format!("metric {name:?}: non-string label {k:?}"))
                })
                .collect::<Result<_, _>>()?;
            labels.sort();
            labels
        }
        _ => return Err(format!("metric {name:?} missing labels object")),
    };
    let value = match json.get("type").and_then(Json::as_str) {
        Some("counter") => MetricValue::Counter(
            json.get("value")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("counter {name:?} missing value"))?,
        ),
        Some("gauge") => MetricValue::Gauge(
            json.get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("gauge {name:?} missing value"))?,
        ),
        Some("histogram") => {
            let raw = json
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("histogram {name:?} missing buckets"))?;
            if raw.len() != HIST_BUCKETS {
                return Err(format!(
                    "histogram {name:?}: {} buckets (expected {HIST_BUCKETS})",
                    raw.len()
                ));
            }
            let mut buckets = [0u64; HIST_BUCKETS];
            for (slot, b) in buckets.iter_mut().zip(raw.iter()) {
                *slot = b
                    .as_u64()
                    .ok_or_else(|| format!("histogram {name:?}: non-integer bucket"))?;
            }
            MetricValue::Histogram(Box::new(HistogramSnapshot {
                count: json
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("histogram {name:?} missing count"))?,
                sum: json
                    .get("sum")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("histogram {name:?} missing sum"))?,
                min: json
                    .get("min")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("histogram {name:?} missing min"))?,
                max: json
                    .get("max")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("histogram {name:?} missing max"))?,
                buckets,
            }))
        }
        other => return Err(format!("metric {name:?}: unknown type {other:?}")),
    };
    Ok(Metric {
        name,
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_values_are_sorted_and_deduped() {
        let mut reg = Registry::new();
        reg.gauge("done", &[("campaign", "c2")], 1.0);
        reg.gauge("pending", &[("campaign", "c1")], 2.0);
        reg.gauge("leased", &[("campaign", "c2")], 3.0);
        reg.counter("jobs", &[("worker", "w0")], 4);
        let report = reg.snapshot("test");
        assert_eq!(report.label_values("campaign"), ["c1", "c2"]);
        assert_eq!(report.label_values("worker"), ["w0"]);
        assert!(report.label_values("nonesuch").is_empty());
    }

    #[test]
    fn counters_accumulate_and_labels_are_order_insensitive() {
        let mut reg = Registry::new();
        reg.counter("cells", &[("kind", "hit"), ("core", "0")], 2);
        reg.counter("cells", &[("core", "0"), ("kind", "hit")], 3);
        assert_eq!(reg.len(), 1);
        assert_eq!(
            reg.counter_value("cells", &[("core", "0"), ("kind", "hit")]),
            5
        );
    }

    #[test]
    fn gauges_overwrite_histograms_merge() {
        let mut reg = Registry::new();
        reg.gauge("depth", &[], 4.0);
        reg.gauge("depth", &[], 2.0);
        assert_eq!(reg.gauge_value("depth", &[]), Some(2.0));
        reg.observe("lat", &[], 1.0);
        reg.observe("lat", &[], 3.0);
        let report = reg.snapshot("test");
        match &report.get("lat", &[]).unwrap().value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.mean(), 2.0);
                assert_eq!((h.min, h.max), (1.0, 3.0));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn quantiles_from_buckets_are_order_of_magnitude_right() {
        let mut h = HistogramSnapshot::default();
        // 98 fast observations around 1ms, 2 slow ones at ~1000ms.
        for _ in 0..98 {
            h.observe(1.0);
        }
        h.observe(1000.0);
        h.observe(1000.0);
        assert_eq!(h.count, 100);
        assert_eq!(h.p50(), 1.0, "median lands in the 1ms bucket");
        assert_eq!(h.p95(), 1.0);
        // p99 must land in the slow tail: bucket bound above 1000
        // clamped to the observed max.
        assert_eq!(h.p99(), 1000.0);
        // Degenerate distribution reports exact values at every q.
        let mut flat = HistogramSnapshot::default();
        for _ in 0..10 {
            flat.observe(3.5);
        }
        assert_eq!((flat.p50(), flat.p99()), (3.5, 3.5));
        assert_eq!(HistogramSnapshot::default().p50(), 0.0);
    }

    #[test]
    fn sparse_histograms_expand_to_the_dense_snapshot() {
        let mut dense = HistogramSnapshot::default();
        let mut sparse = SparseHistogram::default();
        assert_eq!(sparse.snapshot(), dense);
        for v in [3.0, 0.25, 3.5, 1e-9, 1e9, 3.0, 0.0] {
            dense.observe(v);
            sparse.observe(v);
        }
        assert_eq!(sparse.snapshot(), dense);
        assert_eq!(sparse.count(), 7);
    }

    #[test]
    fn histogram_merge_accumulates_buckets() {
        let mut a = HistogramSnapshot::default();
        a.observe(1.0);
        a.observe(2.0);
        let mut b = HistogramSnapshot::default();
        b.observe(64.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!((a.min, a.max), (1.0, 64.0));
        assert_eq!(a.buckets.iter().sum::<u64>(), 3);
        // Merging into an empty snapshot copies, not zero-min.
        let mut empty = HistogramSnapshot::default();
        empty.merge(&b);
        assert_eq!((empty.min, empty.max), (64.0, 64.0));
    }

    #[test]
    fn absorb_folds_a_side_registry_in() {
        let mut live = Registry::new();
        live.observe("lease_ms", &[("campaign", "c1")], 2.0);
        live.counter("frames", &[], 7);
        let mut report = Registry::new();
        report.counter("frames", &[], 1);
        report.gauge("up", &[], 1.0);
        report.absorb(&live);
        assert_eq!(report.counter_value("frames", &[]), 8);
        let snap = report.snapshot("t");
        match &snap.get("lease_ms", &[("campaign", "c1")]).unwrap().value {
            MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut reg = Registry::new();
        reg.gauge("x", &[], 1.0);
        reg.counter("x", &[], 1);
    }

    #[test]
    fn snapshot_is_sorted_and_insertion_order_invisible() {
        let mut a = Registry::new();
        a.counter("zz", &[], 1);
        a.gauge("aa", &[("w", "1")], 2.0);
        let mut b = Registry::new();
        b.gauge("aa", &[("w", "1")], 2.0);
        b.counter("zz", &[], 1);
        assert_eq!(
            a.snapshot("p").to_json().to_string_compact(),
            b.snapshot("p").to_json().to_string_compact()
        );
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut reg = Registry::new();
        reg.counter("cells_done", &[("worker", "w1")], 42);
        reg.gauge("cells_per_sec", &[], 1234.5);
        reg.observe("cell_ms", &[], 0.25);
        reg.observe("cell_ms", &[], 4.0);
        let report = reg.snapshot("unit-test");
        let text = report.to_json().to_string_compact();
        let back = MetricsReport::from_json(&sfence_harness::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let report = Registry::new().snapshot("x");
        let mut json = report.to_json();
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "schema_version" {
                    *v = Json::UInt(METRICS_SCHEMA_VERSION + 1);
                }
            }
        }
        let err = MetricsReport::from_json(&json).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    /// One fixed observation sequence: label orders, escaping, a
    /// side-registry absorb, sub-bucket, mid and +Inf histogram
    /// samples. Exercises every write path.
    fn pinned_registry() -> Registry {
        let mut side = Registry::new();
        side.observe("lease_ms", &[("worker", "w#2")], 0.0005);
        side.observe("lease_ms", &[("worker", "w#2")], 3.0);
        side.observe("lease_ms", &[("campaign", "c1")], 1500000.0);
        side.counter("frames", &[], 7);
        let mut reg = Registry::new();
        reg.counter("cells", &[("kind", "hit"), ("core", "0")], 2);
        reg.counter("cells", &[("core", "0"), ("kind", "hit")], 3);
        reg.gauge("depth", &[], 4.0);
        reg.gauge("depth", &[], 2.5);
        reg.gauge(
            "campaign_info",
            &[("experiment", "fig \"13\""), ("campaign", "c10")],
            1.0,
        );
        reg.gauge(
            "campaign_info",
            &[("campaign", "c9"), ("experiment", "litmus")],
            1.0,
        );
        reg.observe("lat", &[], 1.0);
        reg.observe("lat", &[], 0.25);
        reg.observe("lat", &[], 64.0);
        reg.observe("lat", &[], 1e-9);
        reg.counter("frames", &[], 1);
        reg.gauge("a_first", &[("z", "1"), ("a", "2")], -0.125);
        reg.absorb(&side);
        reg
    }

    /// The bytes below were produced by the linear-scan registry with
    /// inline histograms; the indexed layout must reproduce them
    /// exactly in all three renderings.
    #[test]
    fn snapshot_bytes_are_pinned() {
        const JSON: &str = r#"{"schema_version":2,"produced_by":"pin","metrics":[{"name":"a_first","labels":{"a":"2","z":"1"},"type":"gauge","value":-0.125},{"name":"campaign_info","labels":{"campaign":"c10","experiment":"fig \"13\""},"type":"gauge","value":1.0},{"name":"campaign_info","labels":{"campaign":"c9","experiment":"litmus"},"type":"gauge","value":1.0},{"name":"cells","labels":{"core":"0","kind":"hit"},"type":"counter","value":5},{"name":"depth","labels":{},"type":"gauge","value":2.5},{"name":"frames","labels":{},"type":"counter","value":8},{"name":"lat","labels":{},"type":"histogram","count":4,"sum":65.250000001,"min":0.000000001,"max":64.0,"buckets":[1,0,0,0,0,0,0,0,1,0,1,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},{"name":"lease_ms","labels":{"campaign":"c1"},"type":"histogram","count":1,"sum":1500000.0,"min":1500000.0,"max":1500000.0,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]},{"name":"lease_ms","labels":{"worker":"w#2"},"type":"histogram","count":2,"sum":3.0005,"min":0.0005,"max":3.0,"buckets":[1,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}]}"#;
        const EXPO: &str = r#"# TYPE sfence_a_first gauge
sfence_a_first{a="2",z="1"} -0.125
# TYPE sfence_campaign_info gauge
sfence_campaign_info{campaign="c10",experiment="fig \"13\""} 1
sfence_campaign_info{campaign="c9",experiment="litmus"} 1
# TYPE sfence_cells counter
sfence_cells{core="0",kind="hit"} 5
# TYPE sfence_depth gauge
sfence_depth 2.5
# TYPE sfence_frames counter
sfence_frames 8
# TYPE sfence_lat histogram
sfence_lat_bucket{le="0.0009765625"} 1
sfence_lat_bucket{le="0.25"} 2
sfence_lat_bucket{le="1"} 3
sfence_lat_bucket{le="64"} 4
sfence_lat_bucket{le="+Inf"} 4
sfence_lat_sum 65.250000001
sfence_lat_count 4
# TYPE sfence_lease_ms histogram
sfence_lease_ms_bucket{campaign="c1",le="+Inf"} 1
sfence_lease_ms_sum{campaign="c1"} 1500000
sfence_lease_ms_count{campaign="c1"} 1
sfence_lease_ms_bucket{worker="w#2",le="0.0009765625"} 1
sfence_lease_ms_bucket{worker="w#2",le="4"} 2
sfence_lease_ms_bucket{worker="w#2",le="+Inf"} 2
sfence_lease_ms_sum{worker="w#2"} 3.0005
sfence_lease_ms_count{worker="w#2"} 2
"#;
        const RENDER: &str = r#"a_first{a=2,z=1} -0.125
campaign_info{campaign=c10,experiment=fig "13"} 1.000
campaign_info{campaign=c9,experiment=litmus} 1.000
cells{core=0,kind=hit} 5
depth 2.500
frames 8
lat count=4 mean=16.313 min=0.000 max=64.000 p50=0.250 p95=64.000 p99=64.000
lease_ms{campaign=c1} count=1 mean=1500000.000 min=1500000.000 max=1500000.000 p50=1500000.000 p95=1500000.000 p99=1500000.000
lease_ms{worker=w#2} count=2 mean=1.500 min=0.001 max=3.000 p50=0.001 p95=3.000 p99=3.000
"#;
        let report = pinned_registry().snapshot("pin");
        assert_eq!(report.to_json().to_string_compact(), JSON);
        assert_eq!(crate::expo::prometheus_text(&report, "sfence"), EXPO);
        assert_eq!(report.render(), RENDER);
        assert_eq!(pinned_registry().into_snapshot("pin"), report);
    }

    #[test]
    fn streaming_text_matches_the_tree_and_round_trips() {
        let parse = |text: &str| MetricsReport::from_json_reader(text.as_bytes());
        let report = pinned_registry().snapshot("pin");
        let text = report_json_text(&report.produced_by, report.metrics.clone());
        assert_eq!(text, report.to_json().to_string_compact());
        assert_eq!(parse(&text).unwrap(), report);
        let pretty = report.to_json().to_string_pretty();
        assert_eq!(parse(&pretty).unwrap(), report);
        let empty = Registry::new().snapshot("x");
        assert_eq!(parse(&empty.to_json().to_string_compact()).unwrap(), empty);
        assert!(parse(&text[..text.len() - 3]).is_err());
        assert!(parse(&format!("{text} x")).is_err(), "trailing data");
        // Input trickling in a byte at a time parses the same.
        struct Trickle<'a>(&'a [u8]);
        impl std::io::Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(buf.len()).min(1);
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let quoted = pinned_registry().snapshot("p\"in,}");
        let text = quoted.to_json().to_string_compact();
        assert_eq!(
            MetricsReport::from_json_reader(Trickle(text.as_bytes())).unwrap(),
            quoted
        );
    }
}
