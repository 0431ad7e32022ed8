//! The one producer of the tool's machine-readable output: a JSON
//! object/array writer that owns comma placement and string escaping, so
//! every `to_json` and every CLI `--json` branch emits fields in the
//! order it puts them and escapes keys and strings the same way.

use std::fmt::{Display, Write as _};

/// One JSON object under construction; [`JsonWriter::array`] renders an
/// array in one call.
pub struct JsonWriter(String);

impl JsonWriter {
    /// An empty object.
    pub fn object() -> JsonWriter {
        JsonWriter(String::from("{"))
    }

    /// An array of `items`, each written as it displays (see
    /// [`JsonWriter::put`]).
    pub fn array(items: impl IntoIterator<Item = impl Display>) -> String {
        let mut w = JsonWriter(String::from("["));
        for item in items {
            w.comma();
            let _ = write!(w.0, "{item}");
        }
        w.0.push(']');
        w.0
    }

    /// Appends `"key":value` with `value` written as it displays: a
    /// number, a bool, or an already-rendered nested object or array.
    pub fn put(&mut self, key: &str, value: impl Display) -> &mut JsonWriter {
        self.key(key);
        let _ = write!(self.0, "{value}");
        self
    }

    /// Appends `"key":"value"` with `value` escaped as a JSON string.
    pub fn put_str(&mut self, key: &str, value: &str) -> &mut JsonWriter {
        self.key(key);
        self.string(value);
        self
    }

    /// Appends `"key":value`, or `"key":null` for `None`.
    pub fn put_opt(&mut self, key: &str, value: Option<impl Display>) -> &mut JsonWriter {
        match value {
            Some(v) => self.put(key, v),
            None => self.put(key, "null"),
        }
    }

    /// Closes the object and returns the rendered text.
    pub fn finish(&mut self) -> String {
        self.0.push('}');
        std::mem::take(&mut self.0)
    }

    fn comma(&mut self) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
    }

    fn key(&mut self, key: &str) {
        self.comma();
        self.string(key);
        self.0.push(':');
    }

    fn string(&mut self, s: &str) {
        self.0.push('"');
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.0, "\\u{:04x}", c as u32);
                }
                c => self.0.push(c),
            }
        }
        self.0.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        let mut w = JsonWriter::object();
        w.put_str("plain", "plain")
            .put_str("a\"b\\c\nd", "\u{1}\t\"\\");
        w.put("n", 7)
            .put_opt("none", None::<u64>)
            .put_opt("some", Some(true));
        assert_eq!(
            w.finish(),
            r#"{"plain":"plain","a\"b\\c\nd":"\u0001\t\"\\","n":7,"none":null,"some":true}"#
        );
        assert_eq!(JsonWriter::array(["1", "[2]"]), "[1,[2]]");
        assert_eq!(JsonWriter::array([0u8; 0]), "[]");
        assert_eq!(JsonWriter::object().finish(), "{}");
    }
}
