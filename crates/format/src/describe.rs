//! Self-describing events (paper §4.4).
//!
//! When a developer defines a new event they fill in an `eventParse` structure
//! containing (1) the event name, (2) a field spec string with "as many
//! space-separated tokens as there are values in the event" drawn from `8`,
//! `16`, `32`, `64`, `str`, and (3) a printf-like template in which `%N[fmt]`
//! references the `N`-th field. Example from the paper:
//!
//! ```text
//! {__TR(TRACE_MEM_FCMCOM_ATCH_REG), "64 64",
//!   "Region %0[%llx] attach to FCM %1[%llx]"},
//! ```
//!
//! "The structure allows tools to display events without any special knowledge
//! of the events themselves." [`EventRegistry`] is that table; `ktrace-io`
//! embeds its serialized form in every trace file so the file is
//! self-contained.

use crate::error::FormatError;
use crate::ids::{control, MajorId, MinorId};
use crate::pack::{WordPacker, WordUnpacker};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One field-spec token: the width (or string-ness) of one logged value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldToken {
    /// 8-bit integer field.
    U8,
    /// 16-bit integer field.
    U16,
    /// 32-bit integer field.
    U32,
    /// 64-bit integer field.
    U64,
    /// Variable-length string field.
    Str,
}

impl FieldToken {
    fn parse(tok: &str) -> Result<FieldToken, FormatError> {
        match tok {
            "8" => Ok(FieldToken::U8),
            "16" => Ok(FieldToken::U16),
            "32" => Ok(FieldToken::U32),
            "64" => Ok(FieldToken::U64),
            "str" => Ok(FieldToken::Str),
            other => Err(FormatError::BadSpecToken(other.to_string())),
        }
    }

    fn bits(self) -> Option<u32> {
        match self {
            FieldToken::U8 => Some(8),
            FieldToken::U16 => Some(16),
            FieldToken::U32 => Some(32),
            FieldToken::U64 => Some(64),
            FieldToken::Str => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            FieldToken::U8 => "8",
            FieldToken::U16 => "16",
            FieldToken::U32 => "32",
            FieldToken::U64 => "64",
            FieldToken::Str => "str",
        }
    }
}

/// A parsed field spec: the sequence of value widths logged by an event.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FieldSpec {
    tokens: Vec<FieldToken>,
}

impl FieldSpec {
    /// Parses a spec string such as `"64 64 str 16"`. The empty string is the
    /// empty spec (an event with no payload).
    pub fn parse(spec: &str) -> Result<FieldSpec, FormatError> {
        let tokens = spec
            .split_whitespace()
            .map(FieldToken::parse)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FieldSpec { tokens })
    }

    /// The tokens of this spec.
    pub fn tokens(&self) -> &[FieldToken] {
        &self.tokens
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if the event logs no values.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Renders back to the canonical `"64 64 str"` form.
    pub fn to_spec_string(&self) -> String {
        self.tokens
            .iter()
            .map(|t| t.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Encodes field values into payload words, packing sub-word fields
    /// greedily as the paper's macros do.
    pub fn encode(&self, values: &[FieldValue]) -> Result<Vec<u64>, FormatError> {
        if values.len() != self.tokens.len() {
            return Err(FormatError::Truncated {
                context: "field values",
            });
        }
        let mut packer = WordPacker::new();
        for (tok, val) in self.tokens.iter().zip(values) {
            match (tok.bits(), val) {
                (Some(bits), FieldValue::Int(v)) => {
                    packer.push(*v, bits);
                }
                (None, FieldValue::Str(s)) => {
                    packer.push_str(s);
                }
                (Some(_), FieldValue::Str(_)) => {
                    return Err(FormatError::Truncated {
                        context: "int field given a string",
                    })
                }
                (None, FieldValue::Int(_)) => {
                    return Err(FormatError::Truncated {
                        context: "str field given an int",
                    })
                }
            }
        }
        Ok(packer.finish())
    }

    /// Decodes payload words into field values according to this spec.
    pub fn decode(&self, words: &[u64]) -> Result<Vec<FieldValue>, FormatError> {
        let mut unpacker = WordUnpacker::new(words);
        let mut out = Vec::with_capacity(self.tokens.len());
        for tok in &self.tokens {
            match tok.bits() {
                Some(bits) => {
                    let v = unpacker.read(bits).ok_or(FormatError::Truncated {
                        context: "int field",
                    })?;
                    out.push(FieldValue::Int(v));
                }
                None => {
                    let s = unpacker.read_str().ok_or(FormatError::Truncated {
                        context: "str field",
                    })?;
                    out.push(FieldValue::Str(s));
                }
            }
        }
        Ok(out)
    }
}

/// A decoded field value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// Integer field (of any declared width, widened to 64 bits).
    Int(u64),
    /// String field.
    Str(String),
}

impl FieldValue {
    /// The integer value, or 0 for strings (convenient for tools that know
    /// the field is numeric).
    pub fn as_int(&self) -> u64 {
        match self {
            FieldValue::Int(v) => *v,
            FieldValue::Str(_) => 0,
        }
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Int(v) => write!(f, "{v}"),
            FieldValue::Str(s) => f.write_str(s),
        }
    }
}

/// Descriptor of one event type: its name, field spec, and display template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventDescriptor {
    /// The event's symbolic name, e.g. `TRACE_MEM_FCMCOM_ATCH_REG`.
    pub name: String,
    /// The field spec describing the payload encoding.
    pub spec: FieldSpec,
    /// Printf-like display template; `%N[fmt]` references field `N`.
    pub template: String,
}

impl EventDescriptor {
    /// Builds a descriptor, validating spec and template eagerly so bad
    /// descriptors fail at registration time, not display time.
    pub fn new(name: &str, spec: &str, template: &str) -> Result<EventDescriptor, FormatError> {
        let spec = FieldSpec::parse(spec)?;
        validate_template(template, spec.len())?;
        Ok(EventDescriptor {
            name: name.to_string(),
            spec,
            template: template.to_string(),
        })
    }

    /// Renders the display line for decoded field values.
    pub fn format(&self, values: &[FieldValue]) -> Result<String, FormatError> {
        render_template(&self.template, values)
    }

    /// Decodes payload words and renders the display line in one step.
    pub fn describe(&self, payload: &[u64]) -> Result<String, FormatError> {
        let values = self.spec.decode(payload)?;
        self.format(&values)
    }
}

fn validate_template(template: &str, fields: usize) -> Result<(), FormatError> {
    let mut referenced = vec![false; fields];
    walk_template(template, |piece| {
        if let TemplatePiece::Field { index, .. } = piece {
            if index >= fields {
                return Err(FormatError::BadTemplateIndex { index, fields });
            }
            referenced[index] = true;
        }
        Ok(())
    })?;
    // A declared field the template never shows is a spec/template count
    // mismatch: the developer either logged a value no tool will display or
    // numbered the references wrongly. Catch it here, at registration, rather
    // than shipping a descriptor that silently drops data at display time.
    if let Some(index) = referenced.iter().position(|&r| !r) {
        return Err(FormatError::UnreferencedField { index, fields });
    }
    Ok(())
}

fn render_template(template: &str, values: &[FieldValue]) -> Result<String, FormatError> {
    let mut out = String::with_capacity(template.len() + 16);
    walk_template(template, |piece| {
        match piece {
            TemplatePiece::Literal(s) => out.push_str(s),
            TemplatePiece::Field { index, format } => {
                let v = values.get(index).ok_or(FormatError::BadTemplateIndex {
                    index,
                    fields: values.len(),
                })?;
                render_printf(&mut out, format, v)?;
            }
        }
        Ok(())
    })?;
    Ok(out)
}

enum TemplatePiece<'a> {
    Literal(&'a str),
    Field { index: usize, format: &'a str },
}

/// Walks a template, yielding literal runs and `%N[fmt]` field references.
/// `%%` is the escape for a literal percent sign.
fn walk_template<'a>(
    template: &'a str,
    mut f: impl FnMut(TemplatePiece<'a>) -> Result<(), FormatError>,
) -> Result<(), FormatError> {
    let bytes = template.as_bytes();
    let mut i = 0;
    let mut lit_start = 0;
    while i < bytes.len() {
        if bytes[i] != b'%' {
            i += 1;
            continue;
        }
        if lit_start < i {
            f(TemplatePiece::Literal(&template[lit_start..i]))?;
        }
        if i + 1 < bytes.len() && bytes[i + 1] == b'%' {
            f(TemplatePiece::Literal("%"))?;
            i += 2;
            lit_start = i;
            continue;
        }
        // Parse %N[fmt]
        let num_start = i + 1;
        let mut j = num_start;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        if j == num_start || j >= bytes.len() || bytes[j] != b'[' {
            return Err(FormatError::BadTemplate(format!(
                "expected %N[fmt] at byte {i} of {template:?}"
            )));
        }
        let index: usize = template[num_start..j]
            .parse()
            .map_err(|_| FormatError::BadTemplate(format!("bad field index in {template:?}")))?;
        let fmt_start = j + 1;
        let fmt_end = template[fmt_start..]
            .find(']')
            .map(|off| fmt_start + off)
            .ok_or_else(|| FormatError::BadTemplate(format!("unclosed '[' in {template:?}")))?;
        f(TemplatePiece::Field {
            index,
            format: &template[fmt_start..fmt_end],
        })?;
        i = fmt_end + 1;
        lit_start = i;
    }
    if lit_start < template.len() {
        f(TemplatePiece::Literal(&template[lit_start..]))?;
    }
    Ok(())
}

/// Renders one value with a printf-like format such as `%llx`, `%08lx`, `%d`,
/// `%s`, `%p`, `%c`. Length modifiers (`l`, `ll`, `h`) are accepted and
/// ignored (all integers are 64-bit here); `0` and a width are honoured.
fn render_printf(out: &mut String, fmt: &str, value: &FieldValue) -> Result<(), FormatError> {
    let inner = fmt
        .strip_prefix('%')
        .ok_or_else(|| FormatError::BadTemplate(format!("format {fmt:?} must start with %")))?;
    let bytes = inner.as_bytes();
    let mut i = 0;
    let zero_pad = i < bytes.len() && bytes[i] == b'0';
    if zero_pad {
        i += 1;
    }
    let width_start = i;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let width: usize = inner[width_start..i].parse().unwrap_or(0);
    while i < bytes.len() && matches!(bytes[i], b'l' | b'h' | b'z') {
        i += 1;
    }
    let conv = *bytes
        .get(i)
        .ok_or_else(|| FormatError::BadTemplate(format!("format {fmt:?} missing conversion")))?
        as char;
    if i + 1 != bytes.len() {
        return Err(FormatError::BadTemplate(format!(
            "trailing junk in format {fmt:?}"
        )));
    }

    let rendered = match (conv, value) {
        ('s', v) => v.to_string(),
        ('c', FieldValue::Int(v)) => char::from_u32(*v as u32).unwrap_or('\u{fffd}').to_string(),
        ('d' | 'i', FieldValue::Int(v)) => format!("{}", *v as i64),
        ('u', FieldValue::Int(v)) => format!("{v}"),
        ('x', FieldValue::Int(v)) => format!("{v:x}"),
        ('X', FieldValue::Int(v)) => format!("{v:X}"),
        ('o', FieldValue::Int(v)) => format!("{v:o}"),
        ('p', FieldValue::Int(v)) => format!("0x{v:x}"),
        (c, FieldValue::Str(_)) => {
            return Err(FormatError::BadTemplate(format!(
                "conversion %{c} applied to a string field"
            )))
        }
        (c, _) => {
            return Err(FormatError::BadTemplate(format!(
                "unsupported conversion %{c}"
            )))
        }
    };

    if rendered.len() < width {
        let pad = width - rendered.len();
        let pad_ch = if zero_pad { '0' } else { ' ' };
        for _ in 0..pad {
            out.push(pad_ch);
        }
    }
    out.push_str(&rendered);
    Ok(())
}

/// The registry mapping `(major, minor)` to event descriptors.
///
/// The registry is *data*, not code: it can be serialized into a trace file
/// ([`EventRegistry::to_text`]) and reloaded ([`EventRegistry::from_text`]),
/// so post-processing tools need no compiled-in event knowledge.
#[derive(Debug, Clone, Default)]
pub struct EventRegistry {
    events: HashMap<(u8, MinorId), EventDescriptor>,
}

impl EventRegistry {
    /// An empty registry.
    pub fn new() -> EventRegistry {
        EventRegistry::default()
    }

    /// A registry pre-populated with the tracing infrastructure's own
    /// `CONTROL` events (filler, time anchor, dropped marker).
    pub fn with_builtin() -> EventRegistry {
        let mut r = EventRegistry::new();
        r.register(
            MajorId::CONTROL,
            control::FILLER,
            EventDescriptor::new("TRACE_CONTROL_FILLER", "", "filler").unwrap(),
        );
        r.register(
            MajorId::CONTROL,
            control::TIME_ANCHOR,
            EventDescriptor::new(
                "TRACE_CONTROL_TIME_ANCHOR",
                "64 64",
                "time anchor full_ts %0[%d] cpu %1[%d]",
            )
            .unwrap(),
        );
        r.register(
            MajorId::CONTROL,
            control::DROPPED,
            EventDescriptor::new(
                "TRACE_CONTROL_DROPPED",
                "64",
                "dropped %0[%d] buffers (flight recorder wrap)",
            )
            .unwrap(),
        );
        r.register(
            MajorId::CONTROL,
            control::HEARTBEAT,
            EventDescriptor::new(
                "TRACE_CONTROL_HEARTBEAT",
                "64 64 64 64 64 64 64 64 64 64",
                "heartbeat cpu %0[%d] logged %1[%d] masked %2[%d] dropped %3[%d] \
                 cas_retries %4[%d] filler_words %5[%d] wraps %6[%d] overwrites %7[%d] \
                 sink_written %8[%d] sink_dropped %9[%d]",
            )
            .unwrap(),
        );
        r.register(
            MajorId::CONTROL,
            control::ANOMALY,
            EventDescriptor::new(
                "TRACE_CONTROL_ANOMALY",
                "64 64 64 64",
                "anomaly track %0[%d] cpu %1[%d] z_milli %2[%d] value %3[%d]",
            )
            .unwrap(),
        );
        r.register(
            MajorId::CONTROL,
            control::MASK_ADJUST,
            EventDescriptor::new(
                "TRACE_CONTROL_MASK_ADJUST",
                "64 64 64",
                "mask adjust dir %0[%d] old %1[%x] new %2[%x]",
            )
            .unwrap(),
        );
        r.register(
            MajorId::CONTROL,
            control::SAMPLE_ADJUST,
            EventDescriptor::new(
                "TRACE_CONTROL_SAMPLE_ADJUST",
                "64 64 64",
                "sample adjust dir %0[%d] old %1[%d] new %2[%d]",
            )
            .unwrap(),
        );
        r
    }

    /// Registers (or replaces) the descriptor for `(major, minor)`.
    pub fn register(&mut self, major: MajorId, minor: MinorId, desc: EventDescriptor) {
        self.events.insert((major.raw(), minor), desc);
    }

    /// Looks up the descriptor for `(major, minor)`.
    pub fn lookup(&self, major: MajorId, minor: MinorId) -> Option<&EventDescriptor> {
        self.events.get(&(major.raw(), minor))
    }

    /// Finds an event by symbolic name.
    pub fn by_name(&self, name: &str) -> Option<(MajorId, MinorId, &EventDescriptor)> {
        self.events.iter().find_map(|(&(maj, min), d)| {
            (d.name == name).then(|| (MajorId::new_unchecked(maj), min, d))
        })
    }

    /// Number of registered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are registered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over all `(major, minor, descriptor)` entries (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (MajorId, MinorId, &EventDescriptor)> {
        self.events
            .iter()
            .map(|(&(maj, min), d)| (MajorId::new_unchecked(maj), min, d))
    }

    /// Serializes to a line-oriented text form embedded in trace files.
    /// One event per line: `major<TAB>minor<TAB>name<TAB>spec<TAB>template`,
    /// with `\`, tab, and newline backslash-escaped in the free-text fields.
    pub fn to_text(&self) -> String {
        let mut entries: Vec<_> = self.events.iter().collect();
        entries.sort_by_key(|(&key, _)| key);
        let mut out = String::new();
        for (&(maj, min), d) in entries {
            let _ = writeln!(
                out,
                "{maj}\t{min}\t{}\t{}\t{}",
                escape(&d.name),
                escape(&d.spec.to_spec_string()),
                escape(&d.template)
            );
        }
        out
    }

    /// Parses the text form written by [`EventRegistry::to_text`].
    pub fn from_text(text: &str) -> Result<EventRegistry, FormatError> {
        let mut r = EventRegistry::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(5, '\t');
            let bad = |reason: &str| FormatError::BadRegistryLine {
                line: lineno + 1,
                reason: reason.to_string(),
            };
            let maj: u8 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("bad major"))?;
            let min: u16 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("bad minor"))?;
            let name = unescape(parts.next().ok_or_else(|| bad("missing name"))?);
            let spec = unescape(parts.next().ok_or_else(|| bad("missing spec"))?);
            let template = unescape(parts.next().ok_or_else(|| bad("missing template"))?);
            let major = MajorId::new(maj).map_err(|_| bad("major out of range"))?;
            r.register(major, min, EventDescriptor::new(&name, &spec, &template)?);
        }
        Ok(r)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mem_attach() -> EventDescriptor {
        // The paper's own example descriptor.
        EventDescriptor::new(
            "TRACE_MEM_FCMCOM_ATCH_REG",
            "64 64",
            "Region %0[%llx] attach to FCM %1[%llx]",
        )
        .unwrap()
    }

    #[test]
    fn paper_example_renders() {
        let d = mem_attach();
        let payload = d
            .spec
            .encode(&[
                FieldValue::Int(0x800000001022cc98),
                FieldValue::Int(0xe100000000003f30),
            ])
            .unwrap();
        assert_eq!(
            d.describe(&payload).unwrap(),
            "Region 800000001022cc98 attach to FCM e100000000003f30"
        );
    }

    #[test]
    fn spec_roundtrip_and_rejects_bad_tokens() {
        let s = FieldSpec::parse("8 16 32 64 str").unwrap();
        assert_eq!(s.to_spec_string(), "8 16 32 64 str");
        assert_eq!(FieldSpec::parse("").unwrap().len(), 0);
        assert!(matches!(
            FieldSpec::parse("64 foo"),
            Err(FormatError::BadSpecToken(_))
        ));
    }

    #[test]
    fn encode_decode_mixed_fields() {
        let spec = FieldSpec::parse("8 8 32 str 64").unwrap();
        let vals = vec![
            FieldValue::Int(0xab),
            FieldValue::Int(0xcd),
            FieldValue::Int(0xdeadbeef),
            FieldValue::Str("hello".into()),
            FieldValue::Int(u64::MAX),
        ];
        let words = spec.encode(&vals).unwrap();
        assert_eq!(spec.decode(&words).unwrap(), vals);
    }

    #[test]
    fn template_validation_catches_bad_index() {
        assert!(matches!(
            EventDescriptor::new("E", "64", "val %1[%d]"),
            Err(FormatError::BadTemplateIndex {
                index: 1,
                fields: 1
            })
        ));
        assert!(EventDescriptor::new("E", "64", "val %0[%d]").is_ok());
    }

    #[test]
    fn template_validation_catches_unreferenced_fields() {
        // Two declared fields but the template only shows one: registration
        // must fail, not misrender later.
        assert!(matches!(
            EventDescriptor::new("E", "64 64", "val %0[%d]"),
            Err(FormatError::UnreferencedField {
                index: 1,
                fields: 2
            })
        ));
        // The lowest missing index is reported even with later refs present.
        assert!(matches!(
            EventDescriptor::new("E", "64 64 64", "a %0[%d] c %2[%d]"),
            Err(FormatError::UnreferencedField {
                index: 1,
                fields: 3
            })
        ));
        // Referencing a field twice is fine as long as all are covered.
        assert!(EventDescriptor::new("E", "64", "val %0[%d] (hex %0[%x])").is_ok());
        // Zero fields, zero references is fine.
        assert!(EventDescriptor::new("E", "", "no payload").is_ok());
    }

    #[test]
    fn from_text_rejects_spec_template_mismatch() {
        // A registry line whose template ignores a declared field must be
        // rejected at load time with the descriptor error, not accepted.
        let text = "2\t9\tTRACE_BAD\t64 64\tonly %0[%d]\n";
        assert!(matches!(
            EventRegistry::from_text(text),
            Err(FormatError::UnreferencedField {
                index: 1,
                fields: 2
            })
        ));
    }

    #[test]
    fn template_syntax_errors_are_caught() {
        assert!(EventDescriptor::new("E", "64", "val %0[%d").is_err()); // unclosed
        assert!(EventDescriptor::new("E", "64", "val %x[%d]").is_err()); // no index
        assert!(EventDescriptor::new("E", "64", "100%% done %0[%d]").is_ok()); // %% ok
    }

    #[test]
    fn printf_conversions() {
        let spec = FieldSpec::parse("64").unwrap();
        let cases = [
            ("%0[%d]", 42u64, "42"),
            ("%0[%d]", u64::MAX, "-1"), // signed view
            ("%0[%x]", 255, "ff"),
            ("%0[%X]", 255, "FF"),
            ("%0[%08x]", 0xab, "000000ab"),
            ("%0[%p]", 0x1000, "0x1000"),
            ("%0[%llu]", 7, "7"),
            ("%0[%5d]", 3, "    3"),
            ("%0[%c]", 'K' as u64, "K"),
            ("%0[%o]", 8, "10"),
        ];
        for (tpl, v, want) in cases {
            let d = EventDescriptor::new("E", "64", tpl).unwrap();
            let words = spec.encode(&[FieldValue::Int(v)]).unwrap();
            assert_eq!(d.describe(&words).unwrap(), want, "template {tpl}");
        }
    }

    #[test]
    fn string_fields_render_with_s() {
        let d = EventDescriptor::new("E", "64 str", "pid %0[%d] name %1[%s]").unwrap();
        let words = d
            .spec
            .encode(&[FieldValue::Int(6), FieldValue::Str("/shellServer".into())])
            .unwrap();
        assert_eq!(d.describe(&words).unwrap(), "pid 6 name /shellServer");
    }

    #[test]
    fn registry_text_roundtrip() {
        let mut r = EventRegistry::with_builtin();
        r.register(MajorId::MEM, 4, mem_attach());
        r.register(
            MajorId::PROC,
            1,
            EventDescriptor::new("TRACE_PROC_WEIRD", "str", "odd\tname %0[%s]\nsecond line")
                .unwrap(),
        );
        let text = r.to_text();
        let r2 = EventRegistry::from_text(&text).unwrap();
        assert_eq!(r2.len(), r.len());
        for (maj, min, d) in r.iter() {
            assert_eq!(r2.lookup(maj, min), Some(d), "event {maj}/{min}");
        }
    }

    #[test]
    fn by_name_finds_events() {
        let mut r = EventRegistry::new();
        r.register(MajorId::MEM, 4, mem_attach());
        let (maj, min, _) = r.by_name("TRACE_MEM_FCMCOM_ATCH_REG").unwrap();
        assert_eq!((maj, min), (MajorId::MEM, 4));
        assert!(r.by_name("NOPE").is_none());
    }

    #[test]
    fn builtin_registry_covers_control_events() {
        let r = EventRegistry::with_builtin();
        assert!(r.lookup(MajorId::CONTROL, control::FILLER).is_some());
        assert!(r.lookup(MajorId::CONTROL, control::TIME_ANCHOR).is_some());
        assert!(r.lookup(MajorId::CONTROL, control::DROPPED).is_some());
        assert!(r.lookup(MajorId::CONTROL, control::HEARTBEAT).is_some());
    }

    #[test]
    fn heartbeat_descriptor_matches_shared_schema() {
        // The logger writes HEARTBEAT_WORDS payload words; the descriptor's
        // field spec must decode exactly that many, and every metric named
        // in HEARTBEAT_METRICS must have a payload slot after `cpu`.
        let r = EventRegistry::with_builtin();
        let d = r.lookup(MajorId::CONTROL, control::HEARTBEAT).unwrap();
        assert_eq!(d.spec.len(), control::HEARTBEAT_WORDS);
        assert_eq!(
            control::HEARTBEAT_METRICS.len(),
            control::HEARTBEAT_WORDS - 1
        );
        let words: Vec<u64> = (0..control::HEARTBEAT_WORDS as u64).collect();
        let text = d.describe(&words).unwrap();
        assert!(text.contains("heartbeat cpu 0"));
        assert!(text.contains("sink_dropped 9"));
    }

    proptest! {
        #[test]
        fn registry_roundtrip_arbitrary_names(
            name in "[A-Za-z_][A-Za-z0-9_]{0,40}",
            template in "[ -~]{0,40}",
        ) {
            // Only keep templates that validate for a 0-field spec.
            if let Ok(desc) = EventDescriptor::new(&name, "", &template) {
                let mut r = EventRegistry::new();
                r.register(MajorId::TEST, 1, desc.clone());
                let r2 = EventRegistry::from_text(&r.to_text()).unwrap();
                prop_assert_eq!(r2.lookup(MajorId::TEST, 1), Some(&desc));
            }
        }

        #[test]
        fn encode_decode_roundtrip_int_fields(vals in prop::collection::vec(0u64..=u64::MAX, 0..16)) {
            let spec = FieldSpec::parse(&vec!["64"; vals.len()].join(" ")).unwrap();
            let fv: Vec<FieldValue> = vals.iter().copied().map(FieldValue::Int).collect();
            let words = spec.encode(&fv).unwrap();
            prop_assert_eq!(spec.decode(&words).unwrap(), fv);
        }
    }
}
