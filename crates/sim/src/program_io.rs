//! JSON serialization of lowered [`Program`]s for the on-disk
//! compiled-session cache.
//!
//! `dtu-harness` persists compiled programs under `target/dtu-cache/` so
//! repeated sweeps skip recompilation across *processes*, not just
//! within one. The format is a small, explicit JSON schema covering
//! exactly what the graph compiler emits today: descriptor-only kernel
//! launches, dense/bitmap DMA copies (with repeat, broadcast, and
//! known-zero-fraction sparse estimates), code prefetches, and sync
//! events. Anything outside that set — DMA descriptors carrying a
//! layout [`TransformOp`] other than `Identity`, or a `zero_fraction`
//! JSON cannot hold (NaN, ±infinity) — is rejected at serialization
//! time rather than silently rewritten, so a cache round-trip can never
//! change what a program does.
//!
//! Both directions are single passes with no intermediate tree (the
//! workspace deliberately has no serde):
//!
//! * [`program_to_json`] appends every field straight into one
//!   pre-sized `String`; only the program and kernel names go through
//!   escaping.
//! * [`program_from_json`] is a pull parser that follows the schema.
//!   Numbers stay borrowed slices of the input until a field reads
//!   them, so `u64` quantities (MAC counts can exceed 2^53) never pass
//!   through `f64`, and strings are borrowed unless they contain
//!   escapes. Keys may come in any order and the first copy of a
//!   repeated key wins. Unknown keys, and fields that do not apply to a
//!   command's `op`, are skipped once checked to be well-formed JSON.
//!
//! *Every* malformed input — truncated file, bad escape, wrong type,
//! missing field, a skipped value nested more than 64 levels deep —
//! surfaces as [`ProgramIoError::Parse`], never a panic, which is what
//! lets the cache treat a corrupt artifact as a plain miss.
//!
//! [`TransformOp`]: dtu_tensor::TransformOp

use crate::dma::{DmaDescriptor, DmaPath, MemLevel};
use crate::program::{Command, GroupId, Program, Stream};
use crate::sync::SyncPattern;
use dtu_isa::{DataType, KernelDescriptor, KernelId, OpClass};
use dtu_telemetry::json::escape;
use dtu_tensor::{SparseFormat, TransformOp};
use std::borrow::Cow;
use std::error::Error;
use std::fmt::{self, Write};

/// Errors from program serialization or parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramIoError {
    /// The program uses a feature the JSON schema does not cover.
    Unsupported(String),
    /// The JSON input is malformed or does not describe a program.
    Parse(String),
}

impl fmt::Display for ProgramIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramIoError::Unsupported(what) => {
                write!(f, "program not serializable: {what}")
            }
            ProgramIoError::Parse(why) => write!(f, "program JSON invalid: {why}"),
        }
    }
}

impl Error for ProgramIoError {}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Bytes reserved per command. Compiler output averages under 100 bytes
/// a command, so the buffer rarely has to grow while it is written.
const BYTES_PER_COMMAND: usize = 128;

fn mem_level_name(level: MemLevel) -> &'static str {
    match level {
        MemLevel::L1 => "l1",
        MemLevel::L2 => "l2",
        MemLevel::L3 => "l3",
        MemLevel::Host => "host",
    }
}

fn op_class_name(class: OpClass) -> &'static str {
    match class {
        OpClass::MatrixDense => "matrix_dense",
        OpClass::Elementwise => "elementwise",
        OpClass::Activation => "activation",
        OpClass::Reduction => "reduction",
        OpClass::Movement => "movement",
        OpClass::Gather => "gather",
    }
}

fn dtype_name(dtype: DataType) -> &'static str {
    match dtype {
        DataType::Fp32 => "fp32",
        DataType::Tf32 => "tf32",
        DataType::Fp16 => "fp16",
        DataType::Bf16 => "bf16",
        DataType::Int32 => "int32",
        DataType::Int16 => "int16",
        DataType::Int8 => "int8",
    }
}

/// Appends `s` escaped for a JSON string literal.
fn push_escaped(out: &mut String, s: &str) {
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(&escape(s));
    } else {
        out.push_str(s);
    }
}

/// Appends `,"key":v` for a number. For an `f64`, `{}` is the
/// shortest form that parses back to the same value.
fn num_field(out: &mut String, key: &str, v: impl fmt::Display) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    let _ = write!(out, "{v}");
}

/// Appends `,"key":"v"` for a value that needs no escaping (a schema
/// name).
fn name_field(out: &mut String, key: &str, v: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    out.push_str(v);
    out.push('"');
}

fn write_command(out: &mut String, cmd: &Command) -> Result<(), ProgramIoError> {
    match cmd {
        Command::Launch {
            kernel,
            descriptor: d,
        } => {
            out.push_str("{\"op\":\"launch\"");
            num_field(out, "kernel", kernel.0);
            out.push_str(",\"name\":\"");
            push_escaped(out, &d.name);
            out.push('"');
            name_field(out, "class", op_class_name(d.class));
            name_field(out, "dtype", dtype_name(d.dtype));
            num_field(out, "macs", d.macs);
            num_field(out, "vector_ops", d.vector_ops);
            num_field(out, "sfu_ops", d.sfu_ops);
            num_field(out, "l1_bytes", d.l1_bytes);
            num_field(out, "l2_bytes", d.l2_bytes);
            num_field(out, "l3_bytes", d.l3_bytes);
            num_field(out, "code_bytes", d.code_bytes);
            num_field(out, "narrow_dim", d.narrow_dim);
        }
        Command::Dma {
            descriptor: d,
            overlapped,
        } => {
            if d.transform != TransformOp::Identity {
                return Err(ProgramIoError::Unsupported(format!(
                    "DMA layout transform {:?} (only Identity copies are cacheable)",
                    d.transform
                )));
            }
            if !d.zero_fraction.is_finite() {
                return Err(ProgramIoError::Unsupported(format!(
                    "DMA zero_fraction {} (JSON numbers are finite)",
                    d.zero_fraction
                )));
            }
            let sparse = match d.sparse {
                SparseFormat::Dense => "dense",
                SparseFormat::BitmapBlock => "bitmap_block",
            };
            out.push_str("{\"op\":\"dma\"");
            name_field(out, "src", mem_level_name(d.path.src));
            name_field(out, "dst", mem_level_name(d.path.dst));
            num_field(out, "bytes", d.bytes);
            name_field(out, "sparse", sparse);
            num_field(out, "broadcast", d.broadcast);
            num_field(out, "repeat", d.repeat);
            num_field(out, "zero_fraction", d.zero_fraction);
            out.push_str(if *overlapped {
                ",\"overlapped\":true"
            } else {
                ",\"overlapped\":false"
            });
        }
        Command::Prefetch { kernel, code_bytes } => {
            out.push_str("{\"op\":\"prefetch\"");
            num_field(out, "kernel", kernel.0);
            num_field(out, "code_bytes", code_bytes);
        }
        Command::RegisterEvent { event, pattern } => {
            let (kind, producers, consumers) = match *pattern {
                SyncPattern::OneToOne => ("one_to_one", 1, 1),
                SyncPattern::OneToN { consumers } => ("one_to_n", 1, consumers),
                SyncPattern::NToOne { producers } => ("n_to_one", producers, 1),
                SyncPattern::NToM {
                    producers,
                    consumers,
                } => ("n_to_m", producers, consumers),
            };
            out.push_str("{\"op\":\"register\"");
            num_field(out, "event", event);
            out.push_str(",\"pattern\":{\"kind\":\"");
            out.push_str(kind);
            out.push('"');
            num_field(out, "producers", producers);
            num_field(out, "consumers", consumers);
            out.push('}');
        }
        Command::Signal { event } => {
            out.push_str("{\"op\":\"signal\"");
            num_field(out, "event", event);
        }
        Command::Wait { event } => {
            out.push_str("{\"op\":\"wait\"");
            num_field(out, "event", event);
        }
    }
    out.push('}');
    Ok(())
}

/// Serializes a program into the cacheable JSON schema.
///
/// # Errors
///
/// [`ProgramIoError::Unsupported`] when the program carries constructs
/// the schema cannot represent losslessly (non-`Identity` DMA
/// transforms, non-finite DMA zero fractions). The graph compiler never
/// emits those today, but hand-built programs can.
pub fn program_to_json(program: &Program) -> Result<String, ProgramIoError> {
    let mut out = String::with_capacity(
        64 + program.name.len()
            + 64 * program.streams.len()
            + BYTES_PER_COMMAND * program.total_commands(),
    );
    out.push_str("{\"name\":\"");
    push_escaped(&mut out, &program.name);
    out.push_str("\",\"streams\":[");
    for (i, stream) in program.streams.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"cluster\":{}", stream.group.cluster);
        num_field(&mut out, "group", stream.group.group);
        out.push_str(",\"commands\":[");
        for (j, cmd) in stream.commands.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_command(&mut out, cmd)?;
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Deepest nesting accepted inside a skipped value (the schema itself
/// nests five levels), so hostile input cannot exhaust the stack.
const MAX_SKIP_DEPTH: usize = 64;

/// A value as read from the input. A number is its raw token, already
/// checked to be a JSON number; a skipped array or object keeps its
/// start offset so the schema can come back to it.
#[derive(Debug)]
enum Token<'s> {
    Num(&'s str),
    Str(Cow<'s, str>),
    Bool(bool),
    Null,
    Nested(usize),
}

fn missing(key: &str) -> ProgramIoError {
    ProgramIoError::Parse(format!("missing field `{key}`"))
}

/// The first value read for one key of an object.
struct Field<'s> {
    key: &'static str,
    value: Option<Token<'s>>,
}

impl<'s> Field<'s> {
    fn new(key: &'static str) -> Self {
        Field { key, value: None }
    }

    /// Reads this key's value, or skips it when an earlier copy of the
    /// key already set the field.
    fn read(&mut self, r: &mut Reader<'s>) -> Result<(), ProgramIoError> {
        if self.value.is_some() {
            return r.skip();
        }
        self.value = Some(r.value(0)?);
        Ok(())
    }

    fn token(&self) -> Result<&Token<'s>, ProgramIoError> {
        self.value.as_ref().ok_or_else(|| missing(self.key))
    }

    fn wrong_type(&self, want: &str) -> ProgramIoError {
        ProgramIoError::Parse(format!(
            "field `{}` should be {want}, got {:?}",
            self.key, self.value
        ))
    }

    fn str(&self) -> Result<&str, ProgramIoError> {
        match self.token()? {
            Token::Str(s) => Ok(s),
            _ => Err(self.wrong_type("a string")),
        }
    }

    fn string(self) -> Result<String, ProgramIoError> {
        match self.value {
            Some(Token::Str(s)) => Ok(s.into_owned()),
            None => Err(missing(self.key)),
            Some(_) => Err(self.wrong_type("a string")),
        }
    }

    fn number(&self) -> Result<&'s str, ProgramIoError> {
        match self.token()? {
            Token::Num(raw) => Ok(raw),
            _ => Err(self.wrong_type("a number")),
        }
    }

    fn u64(&self) -> Result<u64, ProgramIoError> {
        let raw = self.number()?;
        raw.parse().map_err(|_| {
            ProgramIoError::Parse(format!("field `{}`: `{raw}` is not a u64", self.key))
        })
    }

    fn usize(&self) -> Result<usize, ProgramIoError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| {
            ProgramIoError::Parse(format!("field `{}`: {v} overflows usize", self.key))
        })
    }

    fn event(&self) -> Result<u32, ProgramIoError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| ProgramIoError::Parse(format!("event id {v} overflows u32")))
    }

    fn f64(&self) -> Result<f64, ProgramIoError> {
        let raw = self.number()?;
        raw.parse().map_err(|_| {
            ProgramIoError::Parse(format!("field `{}`: `{raw}` is not a number", self.key))
        })
    }

    fn bool(&self) -> Result<bool, ProgramIoError> {
        match self.token()? {
            Token::Bool(b) => Ok(*b),
            _ => Err(self.wrong_type("a bool")),
        }
    }

    /// Where the field's array or object starts in the input.
    fn nested(&self) -> Result<usize, ProgramIoError> {
        match self.token()? {
            Token::Nested(at) => Ok(*at),
            _ => Err(self.wrong_type("an object")),
        }
    }
}

/// A cursor over the input. `pos` never passes the end of `text`.
struct Reader<'s> {
    text: &'s str,
    pos: usize,
}

impl<'s> Reader<'s> {
    fn err(&self, why: impl Into<String>) -> ProgramIoError {
        ProgramIoError::Parse(format!("{} at byte {}", why.into(), self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace and returns the next byte.
    fn skip_ws(&mut self) -> Option<u8> {
        while let Some(b) = self.peek() {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    fn expect(&mut self, want: u8) -> Result<(), ProgramIoError> {
        if self.skip_ws() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", want as char)))
        }
    }

    /// Any JSON value. Scalars come back as tokens; arrays and objects
    /// are checked, skipped, and returned as their start offset.
    fn value(&mut self, depth: usize) -> Result<Token<'s>, ProgramIoError> {
        let next = self.skip_ws();
        let start = self.pos;
        match next {
            Some(b'"') => self.string().map(Token::Str),
            Some(b'-' | b'0'..=b'9') => self.number().map(Token::Num),
            Some(b't') => self.keyword("true", Token::Bool(true)),
            Some(b'f') => self.keyword("false", Token::Bool(false)),
            Some(b'n') => self.keyword("null", Token::Null),
            Some(b'[' | b'{') if depth == MAX_SKIP_DEPTH => Err(self.err("nesting too deep")),
            Some(b'[') => {
                self.array(|r| r.value(depth + 1).map(drop))?;
                Ok(Token::Nested(start))
            }
            Some(b'{') => {
                self.object(|r, _| r.value(depth + 1).map(drop))?;
                Ok(Token::Nested(start))
            }
            Some(b) => Err(self.err(format!("unexpected byte `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn skip(&mut self) -> Result<(), ProgramIoError> {
        self.value(0).map(drop)
    }

    fn keyword(&mut self, word: &str, token: Token<'s>) -> Result<Token<'s>, ProgramIoError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// A number token: the longest run of number bytes, which must
    /// parse as a float unless it is plain digits.
    fn number(&mut self) -> Result<&'s str, ProgramIoError> {
        let start = self.pos;
        let mut digits_only = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => digits_only = false,
                _ => break,
            }
            self.pos += 1;
        }
        // Cut at ASCII bytes, so on char boundaries.
        let raw = &self.text[start..self.pos];
        if !digits_only && raw.parse::<f64>().is_err() {
            return Err(self.err(format!("`{raw}` is not a number")));
        }
        Ok(raw)
    }

    /// A string, borrowed from the input unless it holds escapes.
    fn string(&mut self) -> Result<Cow<'s, str>, ProgramIoError> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                // `"` and `\` are ASCII, so both cuts are char boundaries.
                b'"' => {
                    let s = &self.text[start..self.pos];
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                b'\\' => return self.escaped_string(start).map(Cow::Owned),
                _ => self.pos += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    /// The rest of a string that began at `start` and holds an escape
    /// at `pos`.
    fn escaped_string(&mut self, start: usize) -> Result<String, ProgramIoError> {
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("non-scalar \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(self.err(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    let run = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    /// An array, handing each element to `item`, which must consume it.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), ProgramIoError>,
    ) -> Result<(), ProgramIoError> {
        self.expect(b'[')?;
        if self.skip_ws() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.skip_ws() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// An array whose every element `read` turns into one item.
    fn list<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, ProgramIoError>,
    ) -> Result<Vec<T>, ProgramIoError> {
        let mut items = Vec::new();
        self.array(|r| {
            items.push(read(r)?);
            Ok(())
        })?;
        Ok(items)
    }

    /// An object, handing each key to `entry`, which must consume the
    /// key's value.
    fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, &str) -> Result<(), ProgramIoError>,
    ) -> Result<(), ProgramIoError> {
        self.expect(b'{')?;
        if self.skip_ws() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            entry(self, &key)?;
            match self.skip_ws() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// An object read into one field per key in `keys`; other keys are
    /// skipped.
    fn fields<const N: usize>(
        &mut self,
        keys: &[&'static str; N],
    ) -> Result<[Field<'s>; N], ProgramIoError> {
        let mut fields = keys.map(Field::new);
        // Artifacts list keys in schema order, so the search for a key
        // starts just past the previous one.
        let mut next = 0;
        self.object(
            |r, key| match (next..N).chain(0..next).find(|&i| keys[i] == key) {
                Some(i) => {
                    next = i + 1;
                    fields[i].read(r)
                }
                None => r.skip(),
            },
        )?;
        Ok(fields)
    }
}

fn mem_level_from(name: &str) -> Result<MemLevel, ProgramIoError> {
    match name {
        "l1" => Ok(MemLevel::L1),
        "l2" => Ok(MemLevel::L2),
        "l3" => Ok(MemLevel::L3),
        "host" => Ok(MemLevel::Host),
        other => Err(ProgramIoError::Parse(format!(
            "unknown memory level `{other}`"
        ))),
    }
}

fn op_class_from(name: &str) -> Result<OpClass, ProgramIoError> {
    match name {
        "matrix_dense" => Ok(OpClass::MatrixDense),
        "elementwise" => Ok(OpClass::Elementwise),
        "activation" => Ok(OpClass::Activation),
        "reduction" => Ok(OpClass::Reduction),
        "movement" => Ok(OpClass::Movement),
        "gather" => Ok(OpClass::Gather),
        other => Err(ProgramIoError::Parse(format!("unknown op class `{other}`"))),
    }
}

fn dtype_from(name: &str) -> Result<DataType, ProgramIoError> {
    match name {
        "fp32" => Ok(DataType::Fp32),
        "tf32" => Ok(DataType::Tf32),
        "fp16" => Ok(DataType::Fp16),
        "bf16" => Ok(DataType::Bf16),
        "int32" => Ok(DataType::Int32),
        "int16" => Ok(DataType::Int16),
        "int8" => Ok(DataType::Int8),
        other => Err(ProgramIoError::Parse(format!("unknown dtype `{other}`"))),
    }
}

const PATTERN_KEYS: [&str; 3] = ["kind", "producers", "consumers"];

/// Reads the `pattern` object that `field` points at in `text`.
fn sync_pattern_from(text: &str, field: &Field<'_>) -> Result<SyncPattern, ProgramIoError> {
    let mut r = Reader {
        text,
        pos: field.nested()?,
    };
    let [kind, producers, consumers] = r.fields(&PATTERN_KEYS)?;
    let producers = producers.usize()?;
    let consumers = consumers.usize()?;
    match kind.str()? {
        "one_to_one" => Ok(SyncPattern::OneToOne),
        "one_to_n" => Ok(SyncPattern::OneToN { consumers }),
        "n_to_one" => Ok(SyncPattern::NToOne { producers }),
        "n_to_m" => Ok(SyncPattern::NToM {
            producers,
            consumers,
        }),
        other => Err(ProgramIoError::Parse(format!(
            "unknown sync kind `{other}`"
        ))),
    }
}

/// Every key a command may carry; which of them it needs depends on its
/// `op`.
#[rustfmt::skip]
const COMMAND_KEYS: [&str; 23] = [
    "op",
    // launch (prefetch shares `kernel` and `code_bytes`)
    "kernel", "name", "class", "dtype", "macs", "vector_ops", "sfu_ops",
    "l1_bytes", "l2_bytes", "l3_bytes", "code_bytes", "narrow_dim",
    // dma
    "src", "dst", "bytes", "sparse", "broadcast", "repeat", "zero_fraction", "overlapped",
    // register, signal, wait
    "event", "pattern",
];

fn command(r: &mut Reader<'_>) -> Result<Command, ProgramIoError> {
    #[rustfmt::skip]
    let [
        op,
        kernel, name, class, dtype, macs, vector_ops, sfu_ops,
        l1_bytes, l2_bytes, l3_bytes, code_bytes, narrow_dim,
        src, dst, bytes, sparse, broadcast, repeat, zero_fraction, overlapped,
        event, pattern,
    ] = r.fields(&COMMAND_KEYS)?;
    let command = match op.str()? {
        "launch" => Command::Launch {
            kernel: KernelId(kernel.u64()?),
            descriptor: KernelDescriptor {
                name: name.string()?,
                class: op_class_from(class.str()?)?,
                dtype: dtype_from(dtype.str()?)?,
                macs: macs.u64()?,
                vector_ops: vector_ops.u64()?,
                sfu_ops: sfu_ops.u64()?,
                l1_bytes: l1_bytes.u64()?,
                l2_bytes: l2_bytes.u64()?,
                l3_bytes: l3_bytes.u64()?,
                code_bytes: code_bytes.u64()?,
                narrow_dim: narrow_dim.u64()?,
            },
        },
        "dma" => Command::Dma {
            descriptor: DmaDescriptor {
                path: DmaPath::new(mem_level_from(src.str()?)?, mem_level_from(dst.str()?)?),
                bytes: bytes.u64()?,
                transform: TransformOp::Identity,
                sparse: match sparse.str()? {
                    "dense" => SparseFormat::Dense,
                    "bitmap_block" => SparseFormat::BitmapBlock,
                    other => {
                        return Err(ProgramIoError::Parse(format!(
                            "unknown sparse format `{other}`"
                        )))
                    }
                },
                broadcast: broadcast.usize()?,
                repeat: repeat.usize()?,
                zero_fraction: zero_fraction.f64()?,
            },
            overlapped: overlapped.bool()?,
        },
        "prefetch" => Command::Prefetch {
            kernel: KernelId(kernel.u64()?),
            code_bytes: code_bytes.u64()?,
        },
        "register" => Command::RegisterEvent {
            event: event.event()?,
            pattern: sync_pattern_from(r.text, &pattern)?,
        },
        "signal" => Command::Signal {
            event: event.event()?,
        },
        "wait" => Command::Wait {
            event: event.event()?,
        },
        other => {
            return Err(ProgramIoError::Parse(format!(
                "unknown command op `{other}`"
            )))
        }
    };
    Ok(command)
}

fn stream(r: &mut Reader<'_>) -> Result<Stream, ProgramIoError> {
    let mut cluster = Field::new("cluster");
    let mut group = Field::new("group");
    let mut commands = None;
    r.object(|r, key| match key {
        "cluster" => cluster.read(r),
        "group" => group.read(r),
        "commands" if commands.is_none() => {
            commands = Some(r.list(command)?);
            Ok(())
        }
        _ => r.skip(),
    })?;
    Ok(Stream {
        group: GroupId::new(cluster.usize()?, group.usize()?),
        commands: commands.ok_or_else(|| missing("commands"))?,
    })
}

/// Parses a program from the JSON produced by [`program_to_json`].
///
/// # Errors
///
/// [`ProgramIoError::Parse`] on any malformed input — this function
/// never panics on untrusted bytes, which is what lets the disk cache
/// degrade a corrupt artifact into a recompile.
pub fn program_from_json(text: &str) -> Result<Program, ProgramIoError> {
    let mut r = Reader { text, pos: 0 };
    let mut name = Field::new("name");
    let mut streams = None;
    r.object(|r, key| match key {
        "name" => name.read(r),
        "streams" if streams.is_none() => {
            streams = Some(r.list(stream)?);
            Ok(())
        }
        _ => r.skip(),
    })?;
    if r.skip_ws().is_some() {
        return Err(r.err("trailing bytes after program"));
    }
    let mut program = Program::new(name.string()?);
    for stream in streams.ok_or_else(|| missing("streams"))? {
        program.add_stream(stream);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> Program {
        let mut p = Program::new("unit \"quoted\" ☃");
        let mut s0 = Stream::new(GroupId::new(0, 0));
        s0.push(Command::RegisterEvent {
            event: 7,
            pattern: SyncPattern::NToM {
                producers: 2,
                consumers: 3,
            },
        })
        .push(Command::Prefetch {
            kernel: KernelId(3),
            code_bytes: 4096,
        })
        .push(Command::Launch {
            kernel: KernelId(3),
            descriptor: KernelDescriptor {
                name: "conv+relu".into(),
                class: OpClass::MatrixDense,
                dtype: DataType::Fp16,
                // > 2^53: must survive without a float round-trip.
                macs: (1u64 << 53) + 1,
                vector_ops: 10,
                sfu_ops: 5,
                l1_bytes: 1,
                l2_bytes: 2,
                l3_bytes: 3,
                code_bytes: 4096,
                narrow_dim: 64,
            },
        })
        .push(Command::Dma {
            descriptor: DmaDescriptor {
                path: DmaPath::new(MemLevel::L3, MemLevel::L2),
                bytes: 65536,
                transform: TransformOp::Identity,
                sparse: SparseFormat::BitmapBlock,
                broadcast: 3,
                repeat: 8,
                zero_fraction: 0.71,
            },
            overlapped: true,
        })
        .push(Command::Signal { event: 7 });
        let mut s1 = Stream::new(GroupId::new(1, 2));
        s1.push(Command::Wait { event: 7 });
        p.add_stream(s0);
        p.add_stream(s1);
        p
    }

    /// The v1 artifact bytes. Changing this string changes what older
    /// builds wrote to disk: bump `CACHE_FORMAT_VERSION` in
    /// `dtu-harness` along with it.
    const SAMPLE_V1: &str = concat!(
        r#"{"name":"unit \"quoted\" ☃","streams":[{"cluster":0,"group":0,"commands":["#,
        r#"{"op":"register","event":7,"pattern":{"kind":"n_to_m","producers":2,"consumers":3}},"#,
        r#"{"op":"prefetch","kernel":3,"code_bytes":4096},"#,
        r#"{"op":"launch","kernel":3,"name":"conv+relu","class":"matrix_dense","dtype":"fp16","#,
        r#""macs":9007199254740993,"vector_ops":10,"sfu_ops":5,"l1_bytes":1,"l2_bytes":2,"#,
        r#""l3_bytes":3,"code_bytes":4096,"narrow_dim":64},"#,
        r#"{"op":"dma","src":"l3","dst":"l2","bytes":65536,"sparse":"bitmap_block","#,
        r#""broadcast":3,"repeat":8,"zero_fraction":0.71,"overlapped":true},"#,
        r#"{"op":"signal","event":7}]},"#,
        r#"{"cluster":1,"group":2,"commands":[{"op":"wait","event":7}]}]}"#,
    );

    #[test]
    fn v1_bytes_are_pinned() {
        assert_eq!(program_to_json(&sample_program()).unwrap(), SAMPLE_V1);
        assert_eq!(program_from_json(SAMPLE_V1).unwrap(), sample_program());
    }

    #[test]
    fn round_trip_preserves_program_exactly() {
        let p = sample_program();
        let json = program_to_json(&p).unwrap();
        let back = program_from_json(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn serialization_is_deterministic() {
        let p = sample_program();
        assert_eq!(program_to_json(&p).unwrap(), program_to_json(&p).unwrap());
    }

    #[test]
    fn non_identity_transform_is_rejected() {
        let mut p = Program::new("bad");
        let mut s = Stream::new(GroupId::new(0, 0));
        let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 64);
        d.transform = TransformOp::Concat { axis: 1 };
        s.push(Command::Dma {
            descriptor: d,
            overlapped: false,
        });
        p.add_stream(s);
        assert!(matches!(
            program_to_json(&p),
            Err(ProgramIoError::Unsupported(_))
        ));
    }

    #[test]
    fn non_finite_zero_fraction_is_rejected() {
        for zero_fraction in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut d = DmaDescriptor::copy(DmaPath::new(MemLevel::L3, MemLevel::L2), 4096);
            d.sparse = SparseFormat::BitmapBlock;
            d.zero_fraction = zero_fraction;
            let mut s = Stream::new(GroupId::new(0, 0));
            s.push(Command::Dma {
                descriptor: d,
                overlapped: false,
            });
            let mut p = Program::new("nan");
            p.add_stream(s);
            // Written as `0`, the DMA would come back moving 4224 wire
            // bytes instead of 128 (for NaN).
            assert!(
                matches!(program_to_json(&p), Err(ProgramIoError::Unsupported(_))),
                "zero_fraction {zero_fraction} must not be cached"
            );
        }
    }

    #[test]
    fn truncated_json_is_a_parse_error_not_a_panic() {
        let json = program_to_json(&sample_program()).unwrap();
        for cut in 0..json.len() {
            let Some(truncated) = json.get(..cut) else {
                continue;
            };
            assert!(
                program_from_json(truncated).is_err(),
                "cut at {cut} should fail to parse"
            );
        }
        // Every single-byte overwrite parses or fails cleanly.
        for at in 0..json.len() {
            for byte in *b"\"\\{}[],:0-.e tnx" {
                let mut bytes = json.clone().into_bytes();
                bytes[at] = byte;
                if let Ok(text) = String::from_utf8(bytes) {
                    let _ = program_from_json(&text);
                }
            }
        }
    }

    #[test]
    fn garbage_inputs_are_parse_errors() {
        let deep = format!(
            "{{\"name\":\"x\",\"streams\":[],\"deep\":{}{}}}",
            "[".repeat(100_000),
            "]".repeat(100_000)
        );
        for bad in [
            "",
            "null",
            "[]",
            "{\"name\":1,\"streams\":[]}",
            "{\"name\":\"x\"}",
            "{\"name\":\"x\",\"streams\":[{\"cluster\":0}]}",
            "{\"name\":\"x\",\"streams\":[]} trailing",
            "{\"name\":\"x\",\"streams\":[{\"cluster\":-1,\"group\":0,\"commands\":[]}]}",
            "{\"name\":\"x\",\"streams\":[{\"cluster\":0,\"group\":0,\"commands\":[{\"op\":\"zap\"}]}]}",
            "{\"name\":\"x\",\"streams\":[],\"skipped\":1-2}",
            "{\"name\":\"x\",\"streams\":[],\"skipped\":\"\\q\"}",
            deep.as_str(),
        ] {
            assert!(
                matches!(program_from_json(bad), Err(ProgramIoError::Parse(_))),
                "`{}` should not parse",
                &bad[..bad.len().min(80)]
            );
        }
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let json = "{\"name\":\"x\",\"future\":42,\"streams\":[{\"cluster\":0,\"group\":0,\
                    \"commands\":[{\"op\":\"signal\",\"event\":1,\"extra\":null}]}]}";
        let p = program_from_json(json).unwrap();
        assert_eq!(p.total_commands(), 1);
    }

    #[test]
    fn keys_in_any_order_and_the_first_copy_wins() {
        let json = r#" {
            "streams": [{"commands": [
                {"event": 9, "pattern": {"consumers": 4, "kind": "one_to_n", "producers": 1,
                 "kind": "zap"}, "op": "register", "op": "zap"},
                {"kernel": 2, "macs": "not for a signal", "op": "signal", "event": 3,
                 "event": "ignored"},
                {"code_bytes": 8, "op": "prefetch", "pattern": [], "kernel": 5}
            ], "group": 1, "cluster": 0, "cluster": -1}],
            "name": "\u2603 \"x\"",
            "name": 5
        } "#;
        let p = program_from_json(json).unwrap();
        assert_eq!(p.name, "☃ \"x\"");
        assert_eq!(p.streams.len(), 1);
        assert_eq!(p.streams[0].group, GroupId::new(0, 1));
        assert_eq!(
            p.streams[0].commands,
            vec![
                Command::RegisterEvent {
                    event: 9,
                    pattern: SyncPattern::OneToN { consumers: 4 },
                },
                Command::Signal { event: 3 },
                Command::Prefetch {
                    kernel: KernelId(5),
                    code_bytes: 8,
                },
            ]
        );
    }
}
