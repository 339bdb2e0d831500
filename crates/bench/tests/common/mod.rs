//! Helpers the CLI test binaries share: running a binary in a scratch
//! directory, checking a rejected command line, and a small JSON reader
//! for the reports.

#![allow(dead_code)]

use std::ops::Index;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// How long a rejected command line may run: bad input fails before
/// any simulation starts, so this only ever catches a hang.
const REJECT_WITHIN: Duration = Duration::from_secs(60);

/// A fresh scratch directory under `CARGO_TARGET_TMPDIR`.
pub fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Runs `bin` with `args` in `dir`.
pub fn run(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .current_dir(dir)
        .args(args)
        .output()
        .expect("binary runs")
}

/// Runs `bin` like [`run`], but kills it and returns `None` once it has
/// run for `limit`. Meant for short output: a child that fills a pipe
/// blocks until the limit.
fn run_within(bin: &str, dir: &Path, args: &[&str], limit: Duration) -> Option<Output> {
    let mut child = Command::new(bin)
        .current_dir(dir)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let started = Instant::now();
    while child.try_wait().expect("child status").is_none() {
        if started.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Some(child.wait_with_output().expect("child output"))
}

/// Runs `topsexec` with `args` in `dir`, asserts it succeeded, and
/// returns (stdout, stderr).
pub fn topsexec(dir: &Path, args: &[&str]) -> (String, String) {
    let out = run(env!("CARGO_BIN_EXE_topsexec"), dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "topsexec {args:?} failed:\n{stderr}");
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), stderr)
}

/// Checks that `bin args` was rejected the way bad input must be: a
/// non-zero exit within a minute, nothing on stdout, `reason` in the
/// error, and the usage of `command` (e.g. `topsexec serve
/// --generative`) but not the default run's. Returns what was wrong, if
/// anything.
pub fn rejected(bin: &str, args: &[&str], reason: &str, command: &str) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let Some(out) = run_within(bin, dir, args, REJECT_WITHIN) else {
        return Err(format!("{args:?} did not return within {REJECT_WITHIN:?}"));
    };
    let stderr = String::from_utf8_lossy(&out.stderr);
    let usage = format!("usage: {command} ");
    let problem = if out.status.success() {
        "exited 0"
    } else if !out.stdout.is_empty() {
        "printed on stdout"
    } else if !stderr.contains(reason) {
        "did not name the bad input"
    } else if !stderr.contains(&usage) {
        "did not print the command's own usage"
    } else if command != "topsexec" && stderr.contains("usage: topsexec (--model") {
        "printed the default run's usage"
    } else {
        return Ok(());
    };
    Err(format!(
        "{args:?} {problem} (expected `{reason}`):\n{stderr}"
    ))
}

/// Fails listing every case of a table that was not rejected properly.
pub fn assert_all_rejected(failures: Vec<String>) {
    assert!(
        failures.is_empty(),
        "{} case(s) not rejected properly:\n{}",
        failures.len(),
        failures.join("\n---\n")
    );
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a whole JSON document; panics on malformed input.
    pub fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON");
        v
    }

    pub fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("not a number: {other:?}"),
        }
    }

    pub fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    pub fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    /// The member `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key)
            .unwrap_or_else(|| panic!("no member `{key}` in {self:?}"))
    }
}

impl Index<usize> for Json {
    type Output = Json;
    fn index(&self, i: usize) -> &Json {
        &self.arr()[i]
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&b), "expected '{}'", b as char);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(members);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    self.eat(b':');
                    members.push((key, self.value()));
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => {}
                        b'}' => return Json::Obj(members),
                        c => panic!("unexpected '{}' in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => {}
                        b']' => return Json::Arr(items),
                        c => panic!("unexpected '{}' in array", c as char),
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \n\r\t".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).expect("utf-8") {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad token `{n}`"))),
                }
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).expect("utf-8 string"),
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            let ch = char::from_u32(u32::from_str_radix(hex, 16).unwrap())
                                .unwrap_or('\u{fffd}');
                            self.i += 4;
                            out.extend(ch.to_string().bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}
