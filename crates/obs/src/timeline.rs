//! The deterministic timeline exporter (JSONL) over recorded [`Event`]s.
//!
//! Everything here is a pure function of the event slice, so exports are as
//! deterministic as the trace itself — `fig7_timeline` commits its JSONL
//! output to `results/` and `scripts/verify.sh` diffs it like the CSVs.
//! JSON is hand-rolled (the workspace is hermetic; no serde): every payload
//! is an integer, bool or a known `&'static str` name, so quoting only has
//! to handle the free-form crash-dump context string.

use crate::{Event, EventKind, GcCause, GcKind};

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Kind-specific JSON fields (without the common seq/t_ns prefix).
fn json_fields(kind: &EventKind) -> String {
    let name = kind.name();
    match kind {
        EventKind::GcBegin { gc, cause, old_used_words } => format!(
            "\"kind\":\"{name}\",\"gc\":\"{}\",\"cause\":\"{}\",\"old_used_words\":{old_used_words}",
            gc.name(),
            cause.name()
        ),
        EventKind::GcEnd { gc, old_used_words, old_capacity_words, promoted_h2_words } => format!(
            "\"kind\":\"{name}\",\"gc\":\"{}\",\"old_used_words\":{old_used_words},\
             \"old_capacity_words\":{old_capacity_words},\"promoted_h2_words\":{promoted_h2_words}",
            gc.name()
        ),
        EventKind::PhaseBegin { phase } | EventKind::PhaseEnd { phase } => {
            format!("\"kind\":\"{name}\",\"phase\":\"{}\"", phase.name())
        }
        EventKind::SpanBegin { kind } | EventKind::SpanEnd { kind } => {
            format!("\"kind\":\"{name}\",\"span\":\"{}\"", kind.name())
        }
        EventKind::CardScan { table, cards } => {
            format!("\"kind\":\"{name}\",\"table\":\"{}\",\"cards\":{cards}", table.name())
        }
        EventKind::H2PromoFlush { bytes }
        | EventKind::WriteBack { bytes }
        | EventKind::DeviceRead { bytes }
        | EventKind::DeviceWrite { bytes } => format!("\"kind\":\"{name}\",\"bytes\":{bytes}"),
        EventKind::PageFault { sequential } => {
            format!("\"kind\":\"{name}\",\"sequential\":{sequential}")
        }
        EventKind::PageEvict { writeback } => {
            format!("\"kind\":\"{name}\",\"writeback\":{writeback}")
        }
        EventKind::Oom | EventKind::CrashPoint => format!("\"kind\":\"{name}\""),
        EventKind::FaultInjected { write } => {
            format!("\"kind\":\"{name}\",\"write\":{write}")
        }
        EventKind::IoRetry { attempt } => {
            format!("\"kind\":\"{name}\",\"attempt\":{attempt}")
        }
        EventKind::H2Degraded { enospc } => {
            format!("\"kind\":\"{name}\",\"enospc\":{enospc}")
        }
        EventKind::Recovered { torn_pages, regions } => {
            format!("\"kind\":\"{name}\",\"torn_pages\":{torn_pages},\"regions\":{regions}")
        }
        EventKind::UnitBegin { lane, kind } => {
            format!("\"kind\":\"{name}\",\"unit\":\"{}\",\"lane\":{lane}", kind.name())
        }
        EventKind::UnitEnd { lane, kind, cost_ns } => format!(
            "\"kind\":\"{name}\",\"unit\":\"{}\",\"lane\":{lane},\"cost_ns\":{cost_ns}",
            kind.name()
        ),
        EventKind::LaneBarrier { lanes, units, advance_ns, stall_ns } => format!(
            "\"kind\":\"{name}\",\"lanes\":{lanes},\"units\":{units},\
             \"advance_ns\":{advance_ns},\"stall_ns\":{stall_ns}"
        ),
        EventKind::SliceBegin { phase } => {
            format!("\"kind\":\"{name}\",\"phase\":\"{}\"", phase.name())
        }
        EventKind::SliceEnd { phase, units } => {
            format!("\"kind\":\"{name}\",\"phase\":\"{}\",\"units\":{units}", phase.name())
        }
        EventKind::WriteBarrierRemember { root } => {
            format!("\"kind\":\"{name}\",\"root\":{root}")
        }
        EventKind::DeviceQueued { wait_ns } => {
            format!("\"kind\":\"{name}\",\"wait_ns\":{wait_ns}")
        }
        EventKind::TenantSched { tenant, admitted } => {
            format!("\"kind\":\"{name}\",\"tenant\":{tenant},\"admitted\":{admitted}")
        }
        EventKind::Pretenure { label, words } => {
            format!("\"kind\":\"{name}\",\"label\":{label},\"words\":{words}")
        }
        EventKind::PlacementDecision { rdd, partition, choice } => format!(
            "\"kind\":\"{name}\",\"rdd\":{rdd},\"partition\":{partition},\"choice\":\"{}\"",
            crate::PLACEMENT_NAMES[*choice as usize]
        ),
        EventKind::BlockSerde { deser, bytes } => {
            format!("\"kind\":\"{name}\",\"deser\":{deser},\"bytes\":{bytes}")
        }
        EventKind::QueryBegin { session, kind } => format!(
            "\"kind\":\"{name}\",\"session\":{session},\"op\":\"{}\"",
            crate::QUERY_OP_NAMES[*kind as usize]
        ),
        EventKind::QueryEnd { session, rows } => {
            format!("\"kind\":\"{name}\",\"session\":{session},\"rows\":{rows}")
        }
        EventKind::IndexProbe { runs, hits } => {
            format!("\"kind\":\"{name}\",\"runs\":{runs},\"hits\":{hits}")
        }
    }
}

/// One event as a single JSON object (no trailing newline).
pub fn to_json(event: &Event) -> String {
    format!(
        "{{\"seq\":{},\"t_ns\":{},{}}}",
        event.seq,
        event.t_ns,
        json_fields(&event.kind)
    )
}

/// Events as JSONL, one object per line, trailing newline included when
/// non-empty.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&to_json(e));
        out.push('\n');
    }
    out
}

/// Only the GC-attribution events (see [`EventKind::is_gc`]).
pub fn gc_only(events: &[Event]) -> Vec<Event> {
    events.iter().copied().filter(|e| e.kind.is_gc()).collect()
}

/// One reconstructed collection: a paired `GcBegin`/`GcEnd`.
///
/// This carries exactly the fields the runtime's old bespoke `GcEvent` log
/// kept, so timeline consumers (fig7) can reproduce their output
/// byte-identically from the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcCycle {
    pub gc: GcKind,
    pub cause: GcCause,
    pub start_ns: u64,
    pub duration_ns: u64,
    pub old_used_before: u64,
    pub old_used_after: u64,
    pub old_capacity: u64,
    pub promoted_h2_words: u64,
}

/// Pairs `GcBegin`/`GcEnd` events into [`GcCycle`]s, ordered by completion
/// time (the order the old per-GC log recorded them in). Unmatched begins
/// (e.g. a collection aborted by OOM) produce no cycle; an end without a
/// begin (ring overflow ate it) is skipped.
pub fn gc_cycles(events: &[Event]) -> Vec<GcCycle> {
    let mut open: [Vec<(u64, GcCause, u64)>; 2] = [Vec::new(), Vec::new()];
    let mut out = Vec::new();
    for e in events {
        match e.kind {
            EventKind::GcBegin { gc, cause, old_used_words } => {
                let slot = (gc == GcKind::Major) as usize;
                open[slot].push((e.t_ns, cause, old_used_words));
            }
            EventKind::GcEnd { gc, old_used_words, old_capacity_words, promoted_h2_words } => {
                let slot = (gc == GcKind::Major) as usize;
                if let Some((start_ns, cause, before)) = open[slot].pop() {
                    out.push(GcCycle {
                        gc,
                        cause,
                        start_ns,
                        duration_ns: e.t_ns.saturating_sub(start_ns),
                        old_used_before: before,
                        old_used_after: old_used_words,
                        old_capacity: old_capacity_words,
                        promoted_h2_words,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CardTableKind;

    fn e(seq: u64, t_ns: u64, kind: EventKind) -> Event {
        Event { seq, t_ns, kind }
    }

    #[test]
    fn jsonl_is_stable_and_line_per_event() {
        let events = [
            e(0, 5, EventKind::GcBegin { gc: GcKind::Minor, cause: GcCause::AllocFailure, old_used_words: 3 }),
            e(1, 9, EventKind::CardScan { table: CardTableKind::H1, cards: 2 }),
            e(2, 11, EventKind::PageFault { sequential: true }),
        ];
        let jsonl = to_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"t_ns\":5,\"kind\":\"gc_begin\",\"gc\":\"minor\",\
             \"cause\":\"alloc_failure\",\"old_used_words\":3}"
        );
        assert_eq!(lines[1], "{\"seq\":1,\"t_ns\":9,\"kind\":\"card_scan\",\"table\":\"h1\",\"cards\":2}");
        assert_eq!(lines[2], "{\"seq\":2,\"t_ns\":11,\"kind\":\"page_fault\",\"sequential\":true}");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn gc_cycles_pair_in_completion_order() {
        let events = [
            e(0, 10, EventKind::GcBegin { gc: GcKind::Minor, cause: GcCause::AllocFailure, old_used_words: 100 }),
            e(1, 30, EventKind::GcEnd { gc: GcKind::Minor, old_used_words: 120, old_capacity_words: 1000, promoted_h2_words: 0 }),
            e(2, 50, EventKind::GcBegin { gc: GcKind::Major, cause: GcCause::PromotionGuarantee, old_used_words: 900 }),
            e(3, 90, EventKind::GcEnd { gc: GcKind::Major, old_used_words: 400, old_capacity_words: 1000, promoted_h2_words: 64 }),
            // aborted: begin without end
            e(4, 95, EventKind::GcBegin { gc: GcKind::Major, cause: GcCause::LargeAlloc, old_used_words: 999 }),
        ];
        let cycles = gc_cycles(&events);
        assert_eq!(cycles.len(), 2);
        assert_eq!(cycles[0].gc, GcKind::Minor);
        assert_eq!(cycles[0].duration_ns, 20);
        assert_eq!(cycles[0].old_used_before, 100);
        assert_eq!(cycles[0].old_used_after, 120);
        assert_eq!(cycles[1].gc, GcKind::Major);
        assert_eq!(cycles[1].cause, GcCause::PromotionGuarantee);
        assert_eq!(cycles[1].promoted_h2_words, 64);
    }

    #[test]
    fn gc_only_filters_device_noise() {
        let events = [
            e(0, 1, EventKind::DeviceRead { bytes: 8 }),
            e(1, 2, EventKind::Oom),
            e(2, 3, EventKind::PageEvict { writeback: true }),
            e(3, 4, EventKind::H2PromoFlush { bytes: 512 }),
        ];
        let gc = gc_only(&events);
        assert_eq!(gc.len(), 2);
        assert_eq!(gc[0].kind, EventKind::Oom);
        assert_eq!(gc[1].kind, EventKind::H2PromoFlush { bytes: 512 });
    }
}
