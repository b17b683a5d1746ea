//! The benchmark's own span recorder. Spans are opened around calls into a
//! layer's public functions, held in memory, and written as Chrome
//! trace-event JSON when the run ends.

use std::time::Instant;

use serde_json::Value;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation the span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (children clipped to the parent, overlapping
/// children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Chrome trace-event JSON (`{"traceEvents":[...]}`, complete `"ph":"X"`
/// events, microsecond timestamps): one track per span name's layer prefix,
/// `args` carrying the op, the parent span and the self time.
pub fn chrome_trace_json(process: &str, spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut tracks: Vec<&str> = Vec::new();
    let mut events: Vec<Value> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let layer = s.name.rsplit_once('.').map_or(s.name, |(layer, _)| layer);
        let tid = match tracks.iter().position(|t| *t == layer) {
            Some(t) => t,
            None => {
                tracks.push(layer);
                tracks.len() - 1
            }
        };
        events.push(Value::Object(vec![
            ("name".into(), Value::String(s.name.into())),
            ("cat".into(), Value::String(layer.into())),
            ("ph".into(), Value::String("X".into())),
            ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
            ("dur".into(), Value::Float(s.dur_ns() as f64 / 1e3)),
            ("pid".into(), Value::UInt(1)),
            ("tid".into(), Value::UInt(tid as u64)),
            (
                "args".into(),
                Value::Object(vec![
                    ("op".into(), Value::UInt(s.op)),
                    ("span".into(), Value::UInt(i as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("self_us".into(), Value::Float(selfs[i] as f64 / 1e3)),
                ]),
            ),
        ]));
    }
    let meta = |name: &str, tid: Option<usize>, label: &str| {
        let mut fields = vec![
            ("name".into(), Value::String(name.into())),
            ("ph".into(), Value::String("M".into())),
            ("pid".into(), Value::UInt(1)),
        ];
        fields.extend(tid.map(|t| ("tid".to_string(), Value::UInt(t as u64))));
        fields.push((
            "args".into(),
            Value::Object(vec![("name".into(), Value::String(label.into()))]),
        ));
        Value::Object(fields)
    };
    events.push(meta("process_name", None, process));
    for (tid, layer) in tracks.iter().enumerate() {
        events.push(meta("thread_name", Some(tid), layer));
    }
    let doc = Value::Object(vec![("traceEvents".into(), Value::Array(events))]);
    serde_json::to_string(&doc).expect("trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t.x",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child: 10..50 covered once
            span(60, 120, Some(0)), // runs past the root: clipped to 60..100
            span(12, 18, Some(1)),  // grandchild: only its parent pays for it
            span(200, 260, None),   // childless
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 14, 30, 60, 6, 60]);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut rec = Recorder::new();
        let root = rec.open("op", None, 7);
        let v = rec.within("serve.rpc.encode_request", Some(root), 7, || 41 + 1);
        rec.close(root);
        assert_eq!(v, 42);
        assert_eq!(rec.spans[1].parent, Some(root));
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        assert_eq!(rec.durations_us("serve.rpc.encode_request").len(), 1);
        let doc = serde_json::parse_value(&chrome_trace_json("wire_plain", &rec.spans)).unwrap();
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        // Two spans, the process name, and one track name per layer prefix.
        assert_eq!(events.len(), 2 + 1 + 2);
        assert_eq!(
            events[1].get("cat"),
            Some(&Value::String("serve.rpc".into()))
        );
    }
}
