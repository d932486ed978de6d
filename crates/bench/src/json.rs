//! Minimal JSON serialization for experiment results.
//!
//! The build environment has no crates.io access, so instead of serde the
//! harness uses this small [`ToJson`] trait plus the `impl_to_json!`
//! macro for structs. Output matches `serde_json::to_string_pretty`'s
//! shape (two-space indent) so downstream tooling reading `results/*.json`
//! is unaffected.

use std::fmt::Write as _;

/// Types that can render themselves as a JSON value.
pub trait ToJson {
    /// Appends this value's JSON to `out`. `indent` is the current
    /// indentation level in steps of two spaces.
    fn write_json(&self, out: &mut String, indent: usize);
}

/// Renders `value` as pretty-printed JSON.
pub fn to_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out, 0);
    out
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes a JSON object from named fields (used by `impl_to_json!`).
pub fn write_object(out: &mut String, indent: usize, fields: &[(&str, &dyn ToJson)]) {
    if fields.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    for (i, (name, value)) in fields.iter().enumerate() {
        pad(out, indent + 1);
        write_string(out, name);
        out.push_str(": ");
        value.write_json(out, indent + 1);
        if i + 1 < fields.len() {
            out.push(',');
        }
        out.push('\n');
    }
    pad(out, indent);
    out.push('}');
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String, _indent: usize) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

impl_json_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl ToJson for bool {
    fn write_json(&self, out: &mut String, _indent: usize) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _indent: usize) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            // JSON has no Infinity/NaN; serde_json errors here, we degrade.
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _indent: usize) {
        write_string(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, indent: usize) {
        self.as_str().write_json(out, indent);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        self.as_slice().write_json(out, indent);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, indent: usize) {
        if self.is_empty() {
            out.push_str("[]");
            return;
        }
        out.push_str("[\n");
        for (i, item) in self.iter().enumerate() {
            pad(out, indent + 1);
            item.write_json(out, indent + 1);
            if i + 1 < self.len() {
                out.push(',');
            }
            out.push('\n');
        }
        pad(out, indent);
        out.push(']');
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String, indent: usize) {
        (**self).write_json(out, indent);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        match self {
            Some(v) => v.write_json(out, indent),
            None => out.push_str("null"),
        }
    }
}

// Tuples serialize as fixed-length arrays, matching serde.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String, indent: usize) {
        out.push_str("[\n");
        pad(out, indent + 1);
        self.0.write_json(out, indent + 1);
        out.push_str(",\n");
        pad(out, indent + 1);
        self.1.write_json(out, indent + 1);
        out.push('\n');
        pad(out, indent);
        out.push(']');
    }
}

/// Implements [`ToJson`] for a struct with the listed fields.
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String, indent: usize) {
                $crate::json::write_object(
                    out,
                    indent,
                    &[$((stringify!($field), &self.$field as &dyn $crate::json::ToJson)),+],
                );
            }
        }
    };
}

pub(crate) use impl_to_json;

#[cfg(test)]
mod tests {
    use super::*;

    struct Demo {
        name: String,
        count: u64,
        ratio: f64,
        flags: Vec<bool>,
    }

    impl_to_json!(Demo {
        name,
        count,
        ratio,
        flags
    });

    #[test]
    fn structs_render_as_objects() {
        let d = Demo {
            name: "r\"1\"".into(),
            count: 7,
            ratio: 0.5,
            flags: vec![true, false],
        };
        let s = to_pretty(&d);
        assert_eq!(
            s,
            "{\n  \"name\": \"r\\\"1\\\"\",\n  \"count\": 7,\n  \"ratio\": 0.5,\n  \"flags\": [\n    true,\n    false\n  ]\n}"
        );
    }

    #[test]
    fn object_key_order_is_declared_order_and_byte_stable() {
        // results/*.json are diffed run-to-run; churn
        // from reordered keys would read as result changes. Keys must
        // come out in impl_to_json! declaration order, every time.
        let d = Demo {
            name: "stable".into(),
            count: 1,
            ratio: 0.25,
            flags: vec![],
        };
        let first = to_pretty(&d);
        for _ in 0..3 {
            assert_eq!(to_pretty(&d), first, "serialization must be byte-stable");
        }
        let pos = |key: &str| {
            first
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("key {key} missing"))
        };
        let order = [pos("name"), pos("count"), pos("ratio"), pos("flags")];
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "keys must appear in declaration order, got offsets {order:?}"
        );
    }

    #[test]
    fn scalars_and_tuples() {
        assert_eq!(to_pretty(&-3i32), "-3");
        assert_eq!(to_pretty("x"), "\"x\"");
        assert_eq!(to_pretty(&(1u32, 2.5f64)), "[\n  1,\n  2.5\n]");
        assert_eq!(to_pretty(&Vec::<u64>::new()), "[]");
        assert_eq!(to_pretty(&f64::NAN), "null");
    }

    #[test]
    fn strings_escape_quotes_and_backslashes() {
        assert_eq!(to_pretty("say \"hi\""), r#""say \"hi\"""#);
        assert_eq!(to_pretty("C:\\temp\\x"), r#""C:\\temp\\x""#);
        assert_eq!(to_pretty("\\\""), r#""\\\"""#);
    }

    #[test]
    fn strings_escape_control_characters() {
        assert_eq!(to_pretty("a\nb"), r#""a\nb""#);
        assert_eq!(to_pretty("a\rb"), r#""a\rb""#);
        assert_eq!(to_pretty("a\tb"), r#""a\tb""#);
        // Remaining C0 controls use the \u00XX form.
        assert_eq!(to_pretty("\u{0}"), r#""\u0000""#);
        assert_eq!(to_pretty("\u{1b}"), r#""\u001b""#);
        assert_eq!(to_pretty("\u{7}"), r#""\u0007""#);
    }

    #[test]
    fn non_ascii_passes_through_unescaped() {
        // JSON strings are unicode; only controls/quotes/backslashes need
        // escaping, so multibyte text should survive verbatim.
        assert_eq!(to_pretty("αβ 木"), "\"αβ 木\"");
    }

    #[test]
    fn every_escapable_string_renders_as_valid_json() {
        // Exhaustive over the full C0 range plus the two quotable chars:
        // each must round through the writer into something the
        // dependency-free linter accepts.
        for code in (0u32..0x20).chain(['"' as u32, '\\' as u32]) {
            let c = char::from_u32(code).unwrap();
            let s = format!("x{c}y");
            let json = to_pretty(s.as_str());
            trace::lint::check(&json)
                .unwrap_or_else(|e| panic!("U+{code:04X} rendered invalid JSON: {e}"));
        }
    }

    #[test]
    fn object_keys_are_escaped_too() {
        let mut out = String::new();
        write_object(&mut out, 0, &[("we\"ird\nkey", &1u32 as &dyn ToJson)]);
        assert_eq!(out, "{\n  \"we\\\"ird\\nkey\": 1\n}");
        trace::lint::check(&out).unwrap();
    }

    #[test]
    fn nested_vectors_indent_consistently() {
        let v = vec![vec![1u32], vec![2, 3]];
        assert_eq!(
            to_pretty(&v),
            "[\n  [\n    1\n  ],\n  [\n    2,\n    3\n  ]\n]"
        );
    }
}
