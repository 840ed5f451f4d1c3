//! The `BENCH_<section>.json` format: what the golden-gated `repro`
//! sections write and what `repro --diff-bench` compares against
//! `crates/bench/golden/`.
//!
//! A BENCH file is one flat JSON object of scalars, one key per line in
//! emission order, opening with `"section"` and `"quick"`.  Sections build
//! it with [`BenchJson`]; [`diff_bench_json`] reads both sides with the
//! observability crate's JSON parser and applies the two tolerance classes.

use std::collections::BTreeMap;
use std::fmt::{self, Display};
use std::io::Write as _;
use std::path::Path;

use confllvm_obs::{parse_json, write_json_string, Json};

/// A value written as Rust displays it: an integer or a bool.
pub trait Plain: Display {}
impl Plain for bool {}
impl Plain for i64 {}
impl Plain for u64 {}
impl Plain for u128 {}
impl Plain for usize {}

/// One section's BENCH document, built key by key in emission order.
#[derive(Debug, Clone)]
pub struct BenchJson {
    section: String,
    /// The object so far, without its closing brace.
    text: String,
}

impl BenchJson {
    /// Start a document with the two keys every BENCH file opens with.
    pub fn new(section: &str, quick: bool) -> Self {
        let mut text = String::from("{\n  \"section\": ");
        write_json_string(section, &mut text);
        let mut json = BenchJson {
            section: section.to_string(),
            text,
        };
        json.plain("quick", quick);
        json
    }

    fn push(&mut self, key: impl Display, value: impl Display) -> &mut Self {
        self.text.push_str(",\n  ");
        write_json_string(&key.to_string(), &mut self.text);
        self.text.push_str(&format!(": {value}"));
        self
    }

    /// Append an integer or bool.
    pub fn plain(&mut self, key: impl Display, value: impl Plain) -> &mut Self {
        self.push(key, value)
    }

    /// Append a quoted string.
    pub fn str(&mut self, key: impl Display, value: &str) -> &mut Self {
        let mut quoted = String::new();
        write_json_string(value, &mut quoted);
        self.push(key, quoted)
    }

    /// Append a ratio with three decimals, the precision of every ratio
    /// in the goldens.
    pub fn ratio(&mut self, key: impl Display, value: f64) -> &mut Self {
        self.fixed(key, value, 3)
    }

    /// Append `value` with `places` decimals.
    pub fn fixed(&mut self, key: impl Display, value: f64, places: usize) -> &mut Self {
        self.push(key, format!("{value:.places$}"))
    }

    /// The file this document belongs in: `BENCH_<section>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.section)
    }

    /// Save the document at `path` atomically: write and sync a temp file
    /// beside it, rename it over `path`, then sync the directory, so a
    /// crashed run never leaves half a BENCH file behind.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("json.tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(self.to_string().as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()
    }
}

impl Display for BenchJson {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n}}\n", self.text)
    }
}

/// Read a BENCH document into its keys, each value rendered canonically
/// (numbers as the shortest text that parses back to the same `f64`,
/// strings quoted), so two values compare equal exactly when they parse to
/// the same value.  Anything but a flat object of numbers, strings and
/// bools is an error.
fn read_flat(text: &str) -> Result<BTreeMap<String, String>, String> {
    let Json::Obj(fields) = parse_json(text)? else {
        return Err("not a JSON object".to_string());
    };
    fields
        .into_iter()
        .map(|(key, value)| {
            let value = match value {
                Json::Num(n) => n.to_string(),
                Json::Bool(b) => b.to_string(),
                Json::Str(s) => format!("{s:?}"),
                _ => return Err(format!("key `{key}` holds no number, string or bool")),
            };
            Ok((key, value))
        })
        .collect()
}

/// Is this key a host-timing measurement (machine-dependent)?  The suffix
/// is the only thing that decides a key's tolerance class.
fn is_timing_key(key: &str) -> bool {
    key.ends_with("_micros") || key.ends_with("_nanos") || key.ends_with("speedup")
}

/// Diff a freshly emitted BENCH document against its golden copy.
///
/// Two tolerance classes:
/// * **timing keys** (`*_micros`, `*_nanos`, `*speedup`) are machine-
///   dependent — both sides must merely be positive numbers;
/// * **everything else** (simulated cycles, counts, lifecycle states,
///   ratios of simulated totals) is deterministic and must parse to the
///   same value on both sides.
///
/// Returns the list of mismatch descriptions (empty = pass), or an error
/// if either side is not a well-formed BENCH document.
pub fn diff_bench_json(actual: &str, golden: &str) -> Result<Vec<String>, String> {
    let actual = read_flat(actual).map_err(|e| format!("actual file: {e}"))?;
    let golden = read_flat(golden).map_err(|e| format!("golden file: {e}"))?;
    let mut errors = Vec::new();
    for key in golden.keys().filter(|k| !actual.contains_key(*k)) {
        errors.push(format!("missing key `{key}`"));
    }
    for key in actual.keys().filter(|k| !golden.contains_key(*k)) {
        errors.push(format!("unexpected key `{key}`"));
    }
    for (key, a) in &actual {
        let Some(g) = golden.get(key) else { continue };
        if is_timing_key(key) {
            let positive = |v: &str| v.parse::<f64>().is_ok_and(|v| v > 0.0);
            if !positive(a) || !positive(g) {
                errors.push(format!(
                    "timing key `{key}` must be a positive number (actual `{a}`, golden `{g}`)"
                ));
            }
        } else if a != g {
            errors.push(format!("key `{key}`: actual `{a}` != golden `{g}`"));
        }
    }
    Ok(errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_writes_one_key_per_line_in_emission_order() {
        let mut json = BenchJson::new("demo", true);
        json.plain("rows", 2usize)
            .plain("ok", false)
            .str("state", "a \"b\"")
            .ratio("r", 2.0 / 3.0)
            .fixed("bar", 3.0, 1);
        assert_eq!(
            json.to_string(),
            "{\n  \"section\": \"demo\",\n  \"quick\": true,\n  \"rows\": 2,\n  \"ok\": false,\n  \
             \"state\": \"a \\\"b\\\"\",\n  \"r\": 0.667,\n  \"bar\": 3.0\n}\n"
        );
        assert_eq!(json.file_name(), "BENCH_demo.json");
        let text = json.to_string();
        assert!(diff_bench_json(&text, &text).unwrap().is_empty());
    }

    #[test]
    fn write_replaces_the_file_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("bench_json_write_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_demo.json");
        std::fs::write(&path, "stale").unwrap();
        let json = BenchJson::new("demo", false);
        json.write(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json.to_string());
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_accepts_only_flat_objects_of_scalars() {
        let golden = "{\"n\": 3, \"s\": \"x\", \"b\": true}";
        for bad in [
            "[1]",
            "{\"n\": 3, \"nested\": {\"a\": 1}}",
            "{\"n\": [3]}",
            "{\"n\": null}",
            "{\"n\": 3,}",
        ] {
            assert!(diff_bench_json(bad, golden).is_err(), "{bad}");
            assert!(diff_bench_json(golden, bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn exact_keys_compare_by_parsed_value() {
        let golden = "{\"r\": 3.000, \"n\": 1, \"s\": \"1\"}";
        assert!(
            diff_bench_json("{\"r\": 3.0, \"n\": 1.0, \"s\": \"1\"}", golden)
                .unwrap()
                .is_empty()
        );
        let errors = diff_bench_json("{\"r\": 3, \"n\": \"1\", \"s\": 1}", golden).unwrap();
        assert_eq!(errors.len(), 2, "{errors:?}");
    }
}
