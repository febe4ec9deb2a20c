//! Harness-side tracing for the traced rep: host-clock spans around each
//! phase and each probe batch, and one root span per timed client op
//! carrying its virtual start and end. Everything stays in memory until
//! the rep ends. Spans inside the program are a later change; from out
//! here the layers under a client call are visible only as per-op sums.

use std::fmt::Write as _;
use std::time::Instant;

/// What a timed op was, for latency grouping and for the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    /// `stat` and `try_stat` (ghost probes): one path each.
    Stat,
    Write,
    /// One `stat_multi` window.
    StatMulti,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Read, Kind::Stat, Kind::Write, Kind::StatMulti];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Stat => "stat",
            Kind::Write => "write",
            Kind::StatMulti => "stat_multi",
        }
    }
}

/// A host-clock span: a phase of the rep or one probe's batches.
#[derive(Debug, Clone)]
pub struct Span {
    /// Id of the span that caused this one; a span's id is its index.
    pub parent: Option<u64>,
    pub name: String,
    /// The crate the time was spent calling into (`harness` for phases).
    pub layer: &'static str,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
}

/// The root span of one timed client op, stamped in virtual time.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    pub client: u32,
    pub kind: Kind,
    pub bytes: u32,
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
    pub ok: bool,
}

pub struct Trace {
    /// Zero of the host clock: when the process started.
    pub origin: Instant,
    pub spans: Vec<Span>,
    pub ops: Vec<OpSpan>,
    /// The span every op is a child of.
    pub timed_span: Option<u64>,
}

impl Trace {
    /// A trace whose host clock starts at `origin` (process start).
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
            ops: Vec::new(),
            timed_span: None,
        }
    }

    /// Open a span now; close it with [`Trace::end`].
    pub fn begin(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<u64>,
    ) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            parent,
            name: name.into(),
            layer,
            host_start_ns: now,
            host_end_ns: now,
        });
        id
    }

    pub fn end(&mut self, id: u64) {
        self.spans[id as usize].host_end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Spans recorded, op roots included.
    pub fn span_count(&self) -> usize {
        self.spans.len() + self.ops.len()
    }

    /// The trace as one JSON document. Ops are rows under `op_fields`
    /// (an object per op would triple the file); op `i` has id
    /// `op_id_base + i` and parent `op_parent`.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(128 + 96 * self.spans.len() + 48 * self.ops.len());
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"host_clock\":\"ns since process start\",\"spans\":["
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"host_start_ns\":{},\"host_end_ns\":{}}}",
                if id > 0 { "," } else { "" },
                s.name,
                s.layer,
                s.host_start_ns,
                s.host_end_ns
            );
        }
        let _ = write!(
            out,
            "\n],\"op_parent\":{},\"op_id_base\":{},\"op_fields\":[\"client\",\"kind\",\"bytes\",\"virt_start_ns\",\"virt_end_ns\",\"ok\"],\"ops\":[",
            self.timed_span
                .map_or("null".to_string(), |p| p.to_string()),
            self.spans.len()
        );
        for (i, op) in self.ops.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n[{},\"{}\",{},{},{},{}]",
                if i > 0 { "," } else { "" },
                op.client,
                op.kind.name(),
                op.bytes,
                op.virt_start_ns,
                op.virt_end_ns,
                op.ok
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imca_metrics::json::Json;

    #[test]
    fn the_document_parses_and_keeps_every_span() {
        let mut t = Trace::new(Instant::now());
        let build = t.begin("build", "harness", None);
        t.end(build);
        let timed = t.begin("timed", "harness", None);
        t.timed_span = Some(timed);
        t.ops.push(OpSpan {
            client: 2,
            kind: Kind::Read,
            bytes: 2048,
            virt_start_ns: 10,
            virt_end_ns: 110,
            ok: true,
        });
        t.end(timed);
        assert_eq!(t.span_count(), 3);
        let doc = Json::parse(&t.to_json("warm_read", 7)).expect("valid JSON");
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert!(
            spans[1].get("host_end_ns").unwrap().as_u64()
                >= spans[1].get("host_start_ns").unwrap().as_u64()
        );
        assert_eq!(doc.get("op_parent").unwrap().as_u64(), Some(timed));
        let ops = doc.get("ops").and_then(Json::as_arr).unwrap();
        assert_eq!(ops[0].as_arr().unwrap()[4].as_u64(), Some(110));
    }
}
