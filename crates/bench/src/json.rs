//! The minimal JSON reader the harness needs to read its own history
//! files back (no serde in the workspace): objects keep key order,
//! numbers are `f64`, strings take the escapes `json_escape` writes
//! (`\"`, `\\`) and `\/`; any other escape is rejected.

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object (`None` for anything else).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse one JSON document; the error names the byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.i)
    }

    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.s[self.i..].starts_with(token.as_bytes());
        if hit {
            self.i += token.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.s.get(self.i) {
            Some(b'{') => self
                .sequence(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(":") {
                        return Err(p.err("expected ':'"));
                    }
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.sequence(b']', Self::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            _ if self.eat("null") => Ok(Json::Null),
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
            _ => self.number(),
        }
    }

    /// A bracketed, comma-separated run of `item`s; `self.i` is on the
    /// opening bracket.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if items.is_empty() && self.s.get(self.i) == Some(&close) {
                break;
            }
            items.push(item(self)?);
            self.skip_ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(c) if *c == close => break,
                _ => return Err(self.err("expected ',' or a closing bracket")),
            }
        }
        self.i += 1;
        Ok(items)
    }

    fn string(&mut self) -> Result<String, String> {
        self.skip_ws();
        if self.s.get(self.i) != Some(&b'"') {
            return Err(self.err("expected a string"));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => {
                    self.i += 1;
                    out.push(match self.s.get(self.i) {
                        Some(c @ (b'"' | b'\\' | b'/')) => *c,
                        _ => return Err(self.err("unsupported escape")),
                    });
                }
                Some(c) => out.push(*c),
            }
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(out).map_err(|_| self.err("string is not UTF-8"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_the_harness_writes() {
        let v = parse(
            "{\n  \"a\": [1, -2.5e1, {\"k\": \"A*c \\\"q\\\" \\\\\"}],\n  \"b\": null, \"c\": true, \"d\": {}, \"e\": []\n}\n",
        )
        .unwrap();
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2].get("k").and_then(Json::as_str), Some("A*c \"q\" \\"));
        assert_eq!(v.get("b"), Some(&Json::Null));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("e"), Some(&Json::Arr(vec![])));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents_with_an_offset() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"open",
            "1 2",
            "{\"a\": tru}",
            "\"\\u0041\"",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(
                e.starts_with("json: ") && e.contains("at byte"),
                "{bad}: {e}"
            );
        }
    }
}
