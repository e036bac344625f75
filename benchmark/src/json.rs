//! A minimal JSON object writer: the benchmark only ever writes JSON, and
//! the repository vendors no serialisation crate.

/// A JSON object under construction.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

/// A JSON number; non-finite values (which JSON cannot hold) become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds `key` with an already-encoded JSON value.
    pub fn raw(&mut self, key: &str, value: String) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&string(key));
        self.body.push(':');
        self.body.push_str(&value);
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.raw(key, string(value));
    }

    pub fn int(&mut self, key: &str, value: u64) {
        self.raw(key, value.to_string());
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.raw(key, number(value));
    }

    pub fn nums(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|&x| number(x)).collect();
        self.raw(key, format!("[{}]", items.join(",")));
    }

    pub fn strs(&mut self, key: &str, values: &[String]) {
        let items: Vec<String> = values.iter().map(|s| string(s)).collect();
        self.raw(key, format!("[{}]", items.join(",")));
    }

    pub fn obj(&mut self, key: &str, value: Obj) {
        self.raw(key, value.finish());
    }

    /// The encoded object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}
