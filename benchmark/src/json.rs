//! A minimal JSON writer (the repo is hermetic: no serde).
//!
//! Only what the benchmark emits: objects with ordered keys, arrays,
//! strings, integers, floats, booleans and null. String escaping is the
//! flight recorder's, so trace files and timelines quote alike.

use teraheap_obs::timeline::json_string;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Exact integers (counts, nanoseconds).
    Int(i128),
    /// Measurements. Rendered with Rust's shortest round-trip formatting,
    /// so every digit measured is printed; non-finite values become `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => out.push_str(&json_string(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Indented rendering for the files people read (`results.json`).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            // Leaf objects (a metric's value/unit/...) stay on one line.
            Json::Obj(fields)
                if !fields.is_empty()
                    && fields
                        .iter()
                        .any(|(_, v)| matches!(v, Json::Obj(_) | Json::Arr(_))) =>
            {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    out.push_str(&json_string(k));
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-42).render(), "-42");
        assert_eq!(Json::Int(u64::MAX as i128).render(), "18446744073709551615");
        assert_eq!(Json::Num(1.2034).render(), "1.2034");
        assert_eq!(Json::Num(2.0).render(), "2.0");
        assert_eq!(Json::Num(1e-7).render(), "1e-7");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn floats_keep_every_digit() {
        let x = 0.1 + 0.2;
        assert_eq!(Json::Num(x).render().parse::<f64>().unwrap(), x);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn nesting_preserves_key_order() {
        let j = Json::obj([
            ("z", Json::Int(1)),
            ("a", Json::Arr(vec![Json::Bool(false), Json::Null])),
            (
                "m",
                Json::obj([("value", Json::Num(0.5)), ("unit", Json::str("s"))]),
            ),
        ]);
        assert_eq!(
            j.render(),
            "{\"z\":1,\"a\":[false,null],\"m\":{\"value\":0.5,\"unit\":\"s\"}}"
        );
        assert_eq!(Json::Arr(vec![]).render(), "[]");
        assert_eq!(Json::Obj(vec![]).render(), "{}");
    }

    #[test]
    fn pretty_rendering_is_the_same_document() {
        let j = Json::obj([
            (
                "metrics",
                Json::obj([("host_s", Json::obj([("value", Json::Num(2.5))]))]),
            ),
            ("list", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        let pretty = j.render_pretty();
        assert_eq!(
            pretty,
            "{\n  \"metrics\": {\n    \"host_s\": {\"value\":2.5}\n  },\n  \"list\": [\n    1,\n    2\n  ]\n}\n"
        );
        let squeezed: String = pretty.chars().filter(|c| !c.is_whitespace()).collect();
        assert_eq!(squeezed, j.render());
    }
}
