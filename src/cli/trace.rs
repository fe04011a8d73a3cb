//! `sequin trace`: causal lineage from a live server or a postmortem
//! bundle.

use sequin_obs::{filter_outputs, lineage_json, lineage_text, Bundle};
use sequin_server::{decode_bundle, Client, TraceFormat, TRACE_ALL_OUTPUTS, TRACE_ALL_QUERIES};

/// Settings for `sequin trace`: render causal lineage either live from a
/// running server (TRACE_REQ/TRACE_REPLY) or from an on-disk postmortem
/// bundle.
#[derive(Debug, Clone, Default)]
pub struct TraceOptions {
    /// Render an on-disk postmortem bundle instead of querying a server.
    pub bundle: Option<String>,
    /// Server to query live (`--addr`); ignored when `bundle` is set.
    pub addr: Option<String>,
    /// Restrict to one query id.
    pub query: Option<u64>,
    /// Restrict to one provenance id (the 16-hex-digit `pid` stamped on
    /// every output span).
    pub pid: Option<u64>,
    /// Emit JSON instead of the text renderer.
    pub json: bool,
}

/// Parses a provenance id: 16 hex digits, with or without `0x`.
pub fn parse_pid(text: &str) -> Result<u64, String> {
    let hex = text.strip_prefix("0x").unwrap_or(text);
    u64::from_str_radix(hex, 16)
        .map_err(|_| format!("--pid expects a hex provenance id, got `{text}`"))
}

/// Renders a decoded postmortem bundle: capture context (reason, config,
/// replay parameters) followed by the lineage of every output span it
/// froze, through the same renderers the live path uses.
pub fn render_bundle(bundle: &Bundle, query: Option<u64>, pid: Option<u64>, json: bool) -> String {
    let outputs = filter_outputs(&bundle.spans, query, pid);
    if json {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"reason\": {:?},\n", bundle.reason));
        s.push_str(&format!("  \"config\": {:?},\n", bundle.config));
        s.push_str("  \"params\": {");
        for (i, (k, v)) in bundle.params.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{k:?}: {v}"));
        }
        s.push_str("},\n");
        s.push_str(&format!(
            "  \"spans_recorded\": {},\n  \"spans_dropped\": {},\n",
            bundle.recorded, bundle.dropped
        ));
        s.push_str(&format!("  \"lineage\": {},\n", lineage_json(&outputs)));
        s.push_str(&format!(
            "  \"metrics\": {}\n}}\n",
            if bundle.metrics_json.is_empty() {
                "[]"
            } else {
                &bundle.metrics_json
            }
        ));
        return s;
    }
    let mut out = String::new();
    out.push_str(&format!("reason       : {}\n", bundle.reason));
    for line in bundle.config.lines() {
        out.push_str(&format!("config       : {line}\n"));
    }
    let params = bundle
        .params
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    out.push_str(&format!("params       : {params}\n"));
    out.push_str(&format!(
        "trace ring   : {} span(s) recorded, {} evicted\n",
        bundle.recorded, bundle.dropped
    ));
    out.push('\n');
    out.push_str(&lineage_text(&outputs));
    out
}

/// `sequin trace`: reconstructs the causal lineage of emitted (and
/// retracted) outputs — which events constitute each match, what arrival
/// triggered or what watermark sealed it, and for retractions which late
/// event contradicted it. Reads either a live server (observer HELLO,
/// then TRACE_REQ) or an on-disk postmortem bundle.
///
/// # Errors
///
/// Reports missing sources, unreadable, corrupt and version-1 bundles,
/// and protocol failures as display strings.
pub fn run_trace(o: &TraceOptions) -> Result<String, String> {
    if let Some(path) = &o.bundle {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read bundle `{path}`: {e}"))?;
        let bundle =
            decode_bundle(&bytes).map_err(|e| format!("`{path}` is not a readable bundle: {e}"))?;
        return Ok(render_bundle(&bundle, o.query, o.pid, o.json));
    }
    let addr = o
        .addr
        .as_deref()
        .ok_or("trace needs --bundle <path> or --addr <host:port>")?;
    let format = if o.json {
        TraceFormat::Json
    } else {
        TraceFormat::Text
    };
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    client.hello(0, "sequin-trace").map_err(|e| e.to_string())?;
    let body = client
        .trace(
            format,
            o.query.unwrap_or(TRACE_ALL_QUERIES),
            o.pid.unwrap_or(TRACE_ALL_OUTPUTS),
        )
        .map_err(|e| e.to_string())?;
    client.bye();
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_pid_accepts_hex_with_or_without_prefix() {
        assert_eq!(parse_pid("00000000000000ff"), Ok(0xff));
        assert_eq!(parse_pid("0xff"), Ok(0xff));
        assert!(parse_pid("zzz").is_err());
    }
}
