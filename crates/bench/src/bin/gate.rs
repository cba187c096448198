//! Read one value out of a JSON report by its dotted path, for the tier-1
//! gates in `scripts/tier1.sh`:
//!
//! ```text
//! gate BENCH_serve.json sharding.resident_hit_rate
//! ```
//!
//! prints the value's JSON text (a number prints exactly as written) and
//! exits 0; an absent path, a non-scalar value or malformed JSON prints a
//! diagnostic to stderr and exits 1. Object members are addressed by key,
//! array elements by index (`qos.tenants.0.deadline_misses`), so a gate
//! reads the field it names wherever the report puts it.

use std::process::ExitCode;

/// A parsed JSON value; scalars keep their source text.
enum Json {
    Scalar(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// A string literal's raw text between the quotes (escapes kept).
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.src.get(self.pos) {
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(String::from_utf8_lossy(&self.src[start..self.pos - 1]).into());
                }
                b'\\' => self.pos += 2,
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".into())
    }

    /// Parse the comma-separated items of an array or object up to `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        self.skip_ws();
        if self.src.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.skip_ws();
            match self.src.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(&b) if b == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.src.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let members = self.items(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })?;
                Ok(Json::Object(members))
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(Json::Array(self.items(b']', Self::value)?))
            }
            Some(b'"') => Ok(Json::Scalar(format!("\"{}\"", self.string()?))),
            Some(_) => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b))
                {
                    self.pos += 1;
                }
                if start == self.pos {
                    return Err(format!("unexpected byte at {start}"));
                }
                Ok(Json::Scalar(
                    String::from_utf8_lossy(&self.src[start..self.pos]).into(),
                ))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        src: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.src.len() {
        Ok(v)
    } else {
        Err(format!("trailing data at byte {}", p.pos))
    }
}

/// The scalar text at dotted `path`.
fn lookup<'a>(root: &'a Json, path: &str) -> Result<&'a str, String> {
    let mut node = root;
    for seg in path.split('.') {
        node = match node {
            Json::Object(members) => members.iter().find(|(k, _)| k == seg).map(|(_, v)| v),
            Json::Array(items) => seg.parse::<usize>().ok().and_then(|i| items.get(i)),
            Json::Scalar(_) => None,
        }
        .ok_or_else(|| format!("no field {seg:?} on the way to {path}"))?;
    }
    match node {
        Json::Scalar(text) => Ok(text),
        _ => Err(format!("{path} is not a scalar")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, file, path] = args.as_slice() else {
        eprintln!("usage: gate <report.json> <dotted.path>");
        return ExitCode::FAILURE;
    };
    let result = std::fs::read_to_string(file)
        .map_err(|e| format!("{file}: {e}"))
        .and_then(|text| parse(&text))
        .and_then(|root| lookup(&root, path).map(str::to_owned));
    match result {
        Ok(value) => {
            println!("{value}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gate: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
      "affinity": {"resident_hit_rate": 0.7217, "note": "a \"quoted\" word"},
      "qos": {"deadline_misses": 0, "tenants": [{"deadline_misses": 3}]},
      "sharding": {"resident_hit_rate": 1.0, "plan_prediction_error": 8.1e-3},
      "empty": [], "flag": true
    }"#;

    #[test]
    fn same_key_in_two_objects_is_addressed_by_path() {
        let root = parse(REPORT).unwrap();
        assert_eq!(lookup(&root, "affinity.resident_hit_rate"), Ok("0.7217"));
        assert_eq!(lookup(&root, "sharding.resident_hit_rate"), Ok("1.0"));
    }

    #[test]
    fn numbers_keep_their_text_and_arrays_index() {
        let root = parse(REPORT).unwrap();
        assert_eq!(
            lookup(&root, "sharding.plan_prediction_error"),
            Ok("8.1e-3")
        );
        assert_eq!(lookup(&root, "qos.tenants.0.deadline_misses"), Ok("3"));
        assert_eq!(lookup(&root, "flag"), Ok("true"));
    }

    #[test]
    fn absent_paths_and_containers_are_errors() {
        let root = parse(REPORT).unwrap();
        assert!(lookup(&root, "sharding.missing").is_err());
        assert!(lookup(&root, "qos.tenants.1.deadline_misses").is_err());
        assert!(lookup(&root, "qos").is_err());
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
    }
}
