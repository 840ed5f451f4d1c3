//! Typed span/event attributes — the compile-time half of the redaction
//! boundary.
//!
//! Everything the recorder will ever serialise into a trace or metrics file
//! goes through [`AttrValue`].  The type has variants for numbers, booleans
//! and *`'static`* strings only, and the `From` impls cover exactly those
//! types.  There is deliberately **no** conversion from `String`, `&str`
//! (non-static), `&[u8]` or `Vec<u8>`: runtime byte payloads — which is what
//! private `World` state (passwords, secret files, request bodies) is — are
//! unrepresentable as attributes, so instrumentation cannot leak them even
//! by accident.  A `&'static str` is by construction a program literal,
//! known at compile time, and therefore cannot carry a secret that only
//! exists at run time.
//!
//! The run-time half of the boundary (a debug assertion scanning every
//! recorded event against registered private sentinels) lives in
//! [`crate::recorder`].

/// One attribute value: numbers, booleans, or compile-time string literals.
///
/// See the module docs for why there is no variant holding owned or
/// borrowed runtime bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// An unsigned counter-like value (cycles, pages, ids).
    U64(u64),
    /// A signed value (exit codes, deltas).
    I64(i64),
    /// A ratio or percentage.
    F64(f64),
    /// A flag (cache hit, verified).
    Bool(bool),
    /// A compile-time string literal (state names, pass names).
    Text(&'static str),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<i32> for AttrValue {
    fn from(v: i32) -> Self {
        AttrValue::I64(v as i64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Text(v)
    }
}

impl AttrValue {
    /// Append this value as a JSON scalar.
    pub(crate) fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            AttrValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v:.3}");
            }
            AttrValue::F64(_) => out.push_str("null"),
            AttrValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::Text(v) => write_json_string(v, out),
        }
    }
}

/// Append `s` as a JSON string with the required escapes.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_cover_the_scalar_types() {
        assert_eq!(AttrValue::from(3u64), AttrValue::U64(3));
        assert_eq!(AttrValue::from(3usize), AttrValue::U64(3));
        assert_eq!(AttrValue::from(-3i64), AttrValue::I64(-3));
        assert_eq!(AttrValue::from(true), AttrValue::Bool(true));
        assert_eq!(AttrValue::from("warm"), AttrValue::Text("warm"));
    }

    #[test]
    fn json_scalars_render_and_escape() {
        let render = |v: AttrValue| {
            let mut s = String::new();
            v.write_json(&mut s);
            s
        };
        assert_eq!(render(AttrValue::U64(7)), "7");
        assert_eq!(render(AttrValue::F64(1.5)), "1.500");
        assert_eq!(render(AttrValue::F64(f64::NAN)), "null");
        assert_eq!(render(AttrValue::Text("a\"b")), "\"a\\\"b\"");
    }
}
