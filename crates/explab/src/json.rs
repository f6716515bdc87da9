//! A minimal JSON writer for trial records.
//!
//! The workspace is offline (no serde); trial records only need flat objects
//! with string/number/bool/array fields, so a small push-style builder keeps
//! the JSONL output in one place. Numbers are written deterministically:
//! integers as-is, floats with a fixed six-decimal format so that records
//! compare bit-identically across runs and worker counts.

/// Escapes a string for inclusion in a JSON document (quotes included),
/// with the plan format's escaper.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    embeddings::plan::escape_into(&mut out, s);
    out.push('"');
    out
}

/// Formats a float with the fixed precision used across all records.
pub fn number(value: f64) -> String {
    format!("{value:.6}")
}

/// A JSON object under construction.
#[derive(Default)]
pub struct Object {
    fields: Vec<String>,
}

impl Object {
    /// Creates an empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// Adds a string field.
    pub fn string(mut self, key: &str, value: &str) -> Object {
        self.fields
            .push(format!("{}:{}", escape(key), escape(value)));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Object {
        self.fields.push(format!("{}:{value}", escape(key)));
        self
    }

    /// Adds a float field (fixed six-decimal format).
    pub fn f64(mut self, key: &str, value: f64) -> Object {
        self.fields
            .push(format!("{}:{}", escape(key), number(value)));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Object {
        self.fields.push(format!("{}:{value}", escape(key)));
        self
    }

    /// Adds a pre-rendered JSON value (object, array, or `null`).
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Object {
        self.fields
            .push(format!("{}:{}", escape(key), value.into()));
        self
    }

    /// Renders the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Renders a JSON array from pre-rendered element values.
pub fn array(elements: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", elements.into_iter().collect::<Vec<_>>().join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escape("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn objects_render_in_insertion_order() {
        let json = Object::new()
            .string("name", "trial")
            .u64("nodes", 24)
            .f64("avg", 1.5)
            .bool("ok", true)
            .raw("steps", array(vec!["1".to_string(), "2".to_string()]))
            .finish();
        assert_eq!(
            json,
            "{\"name\":\"trial\",\"nodes\":24,\"avg\":1.500000,\"ok\":true,\"steps\":[1,2]}"
        );
    }

    #[test]
    fn numbers_are_fixed_precision() {
        assert_eq!(number(1.0), "1.000000");
        assert_eq!(number(2.0 / 3.0), "0.666667");
    }
}
