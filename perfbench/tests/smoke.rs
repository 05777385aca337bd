//! Smoke test: every workload at a tiny size, untraced and traced. The
//! metric names and units must match `BENCHMARK.json`, every answer must be
//! right, and a planted wrong expected answer must raise the failed ratio
//! above zero.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["edit_large", "read_hot", "audit"];

/// A JSON value; just enough of JSON for the benchmark's own files.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut pos = 0;
        let value = parse_value(text.as_bytes(), &mut pos);
        skip_ws(text.as_bytes(), &mut pos);
        assert_eq!(pos, text.len(), "trailing text after JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Json {
    skip_ws(bytes, pos);
    match bytes[*pos] {
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            loop {
                skip_ws(bytes, pos);
                if bytes[*pos] == b'}' {
                    *pos += 1;
                    return Json::Obj(map);
                }
                let Json::Str(key) = parse_value(bytes, pos) else {
                    panic!("object key is not a string");
                };
                skip_ws(bytes, pos);
                assert_eq!(bytes[*pos], b':');
                *pos += 1;
                map.insert(key, parse_value(bytes, pos));
                skip_ws(bytes, pos);
                if bytes[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(bytes, pos);
                if bytes[*pos] == b']' {
                    *pos += 1;
                    return Json::Arr(items);
                }
                items.push(parse_value(bytes, pos));
                skip_ws(bytes, pos);
                if bytes[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match bytes[*pos] {
                    b'"' => {
                        *pos += 1;
                        return Json::Str(out);
                    }
                    b'\\' => {
                        let escaped = bytes[*pos + 1];
                        *pos += 2;
                        match escaped {
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex = std::str::from_utf8(&bytes[*pos..*pos + 4]).unwrap();
                                out.push(
                                    char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                                );
                                *pos += 4;
                            }
                            other => out.push(char::from(other)),
                        }
                    }
                    _ => {
                        let start = *pos;
                        while bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                            *pos += 1;
                        }
                        out.push_str(std::str::from_utf8(&bytes[start..*pos]).unwrap());
                    }
                }
            }
        }
        b't' => {
            *pos += 4;
            Json::Bool(true)
        }
        b'f' => {
            *pos += 5;
            Json::Bool(false)
        }
        b'n' => {
            *pos += 4;
            Json::Null
        }
        _ => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            Json::Num(
                std::str::from_utf8(&bytes[start..*pos])
                    .unwrap()
                    .parse()
                    .unwrap(),
            )
        }
    }
}

/// `name -> unit` of one metric section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"));
    let Json::Arr(metrics) = spec.get(section) else {
        panic!("{section} is not a list");
    };
    metrics
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

/// Runs one tiny workload and returns its result line, parsed.
fn run(workload: &str, trace: bool, corrupt: bool) -> Json {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(env!("CARGO_TARGET_TMPDIR")).args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.5",
        "--trace",
        if trace { "1" } else { "0" },
        "--tiny",
    ]);
    if corrupt {
        cmd.arg("--corrupt-expected");
    }
    let out = cmd.output().expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "a record line and a result line");
    Json::parse(lines[lines.len() - 2]).get("record");
    Json::parse(lines[lines.len() - 1])
}

fn metrics_of(result: &Json) -> BTreeMap<String, String> {
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value");
            assert!(matches!(value, Json::Num(_)), "{name} has no numeric value");
            (name.clone(), m.get("unit").str().to_owned())
        })
        .collect()
}

#[test]
fn every_workload_reports_the_declared_metrics_with_right_answers() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let result = run(workload, trace, false);
            assert_eq!(&metrics_of(&result), expected, "{workload} trace={trace}");
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{workload} trace={trace}"
            );
            assert_eq!(result.get("failed").num(), 0.0);
            assert!(result.get("attempted").num() >= 1.0);
        }
    }
}

#[test]
fn a_wrong_expected_answer_is_counted_as_failed() {
    for workload in WORKLOADS {
        let result = run(workload, false, true);
        let failed_ratio = result.get("failed").num() / result.get("attempted").num();
        assert!(
            failed_ratio > 0.0,
            "{workload}: planted wrong answer not counted"
        );
        assert_eq!(result.get("correct"), &Json::Bool(false));
    }
}
