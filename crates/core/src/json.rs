//! A tiny JSON value model with a writer and recursive-descent parser.
//!
//! Checkpoints, the service wire protocol, fleet snapshots, and
//! conformance repro artifacts must all replay byte-exactly in an offline
//! build, so the workspace carries its own minimal JSON support instead of
//! depending on an external serializer. Two deliberate deviations from a
//! general-purpose library keep replay lossless: unsigned integers are a
//! distinct variant (`u64` workload words do not survive a round-trip
//! through `f64`), and objects preserve insertion order so emitted
//! documents are deterministic.
//!
//! Decoders read fields through the typed `get_*` accessors, which share
//! one "missing or non-… field" error message.

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer written without fraction or exponent.
    /// Kept apart from [`Json::Num`] so `u64` values round-trip exactly.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` (only [`Json::UInt`]).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(u) => Some(u as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up `key` and converts it with `pick`, or describes why not.
    fn field<'a, T>(
        &'a self,
        key: &str,
        kind: &str,
        pick: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(pick)
            .ok_or_else(|| format!("missing or non-{kind} field {key:?}"))
    }

    /// Field `key` as a `u64`.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or not an unsigned integer.
    pub fn get_u64(&self, key: &str) -> Result<u64, String> {
        self.field(key, "integer", Json::as_u64)
    }

    /// Field `key` as a `u32`.
    ///
    /// # Errors
    ///
    /// As [`get_u64`](Self::get_u64), plus values above `u32::MAX`.
    pub fn get_u32(&self, key: &str) -> Result<u32, String> {
        let n = self.get_u64(key)?;
        u32::try_from(n).map_err(|_| format!("field {key:?} out of u32 range: {n}"))
    }

    /// Field `key` as an optional `u32`: absent or `null` is `None`.
    ///
    /// # Errors
    ///
    /// As [`get_u32`](Self::get_u32) when the field is present.
    pub fn get_opt_u32(&self, key: &str) -> Result<Option<u32>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(_) => self.get_u32(key).map(Some),
        }
    }

    /// Field `key` as an optional `u64`: absent or `null` is `None`.
    ///
    /// # Errors
    ///
    /// As [`get_u64`](Self::get_u64) when the field is present.
    pub fn get_opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(_) => self.get_u64(key).map(Some),
        }
    }

    /// Field `key` as an `f64` (integers widen).
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or not a number.
    pub fn get_f64(&self, key: &str) -> Result<f64, String> {
        self.field(key, "numeric", Json::as_f64)
    }

    /// Field `key` as a bool.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or not a bool.
    pub fn get_bool(&self, key: &str) -> Result<bool, String> {
        self.field(key, "boolean", Json::as_bool)
    }

    /// Field `key` as a string slice.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or not a string.
    pub fn get_str(&self, key: &str) -> Result<&str, String> {
        self.field(key, "string", Json::as_str)
    }

    /// Field `key` as an array slice.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or not an array.
    pub fn get_arr(&self, key: &str) -> Result<&[Json], String> {
        self.field(key, "array", Json::as_arr)
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(u) => write!(f, "{u}"),
            // `{:?}` prints the shortest representation that round-trips.
            Json::Num(x) => write!(f, "{x:?}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {}", char::from(b), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                pairs.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| format!("truncated \\u escape at offset {}", *pos))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape in one
                // piece. Both are ASCII, so the run ends on a character
                // boundary.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |i| *pos + i);
                let run = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|_| format!("invalid UTF-8 in string at offset {}", *pos))?;
                out.push_str(run);
                *pos = end;
            }
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let mut integral = true;
    if bytes.get(*pos) == Some(&b'-') {
        integral = false;
        *pos += 1;
    }
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                integral = false;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid number at offset {start}"))?;
    if text.is_empty() {
        return Err(format!("expected a value at offset {start}"));
    }
    if integral {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{text}' at offset {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_exactly() {
        let v = Json::UInt(u64::MAX);
        let parsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn floats_round_trip_shortest() {
        let v = Json::Num(1.15);
        assert_eq!(Json::parse(&v.to_string()).unwrap().as_f64(), Some(1.15));
    }

    #[test]
    fn nested_document_round_trips() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::UInt(1), Json::Null])),
            ("s".into(), Json::Str("q\"\\\n".into())),
            ("b".into(), Json::Bool(false)),
        ]);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn typed_accessors_name_the_field() {
        let doc =
            Json::parse(r#"{"n":7,"big":4294967296,"x":1.5,"b":true,"s":"hi","a":[1],"z":null}"#)
                .unwrap();
        assert_eq!(doc.get_u64("n"), Ok(7));
        assert_eq!(doc.get_u32("n"), Ok(7));
        assert_eq!(doc.get_f64("x"), Ok(1.5));
        assert_eq!(doc.get_f64("n"), Ok(7.0));
        assert_eq!(doc.get_bool("b"), Ok(true));
        assert_eq!(doc.get_str("s"), Ok("hi"));
        assert_eq!(doc.get_arr("a").map(<[Json]>::len), Ok(1));
        assert_eq!(doc.get_opt_u32("z"), Ok(None));
        assert_eq!(doc.get_opt_u64("absent"), Ok(None));
        assert_eq!(doc.get_opt_u64("n"), Ok(Some(7)));
        assert_eq!(
            doc.get_u64("x").unwrap_err(),
            "missing or non-integer field \"x\""
        );
        assert_eq!(
            doc.get_str("absent").unwrap_err(),
            "missing or non-string field \"absent\""
        );
        assert!(doc.get_u32("big").unwrap_err().contains("u32 range"));
        assert!(doc.get_opt_u32("s").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
    }
}
