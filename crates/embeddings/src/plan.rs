//! Plan-as-value: serializable embedding descriptions decoupled from live
//! closures.
//!
//! Every embedding this crate constructs is a closure over a handful of
//! integers — exactly the paper's point that a placement query is `O(d)`
//! digit arithmetic with nothing materialized. Closures, however, cannot
//! cross a process boundary. A [`Plan`] is the value form of an embedding:
//! the graph pair, the construction's name, its dilation figure, and
//! (optionally) an explicit placement table for refined placements that have
//! no closed form. Plans serialize to a one-line text format and rebuild
//! into a live [`Embedding`] with [`Plan::to_embedding`], which is what the
//! `embd` placement service serves over the wire and what `explab` dumps
//! alongside every trial record.
//!
//! # Wire format
//!
//! ```text
//! plan v1 guest=torus:4x2x3 host=mesh:4x6 dilation=4 construction="U_V ∘ T_L ∘ π" table=-
//! plan v1 guest=mesh:2x2 host=mesh:2x2 dilation=1 construction="refined" table=0,1,3,2
//! ```
//!
//! Fields appear in exactly this order. A graph spec is
//! `torus:<l1>x…x<ld>` or `mesh:<l1>x…x<ld>` (rings, lines and hypercubes
//! are the 1-dimensional and all-radix-2 special cases). The construction
//! name is a quoted string with JSON-style escapes (`\"`, `\\`, `\n`, `\t`,
//! `\r`, `\uXXXX` including surrogate pairs for astral code points).
//! `table=-` means "rebuild by construction"; otherwise the table is the
//! comma-separated list of host node indices, guest-node order.
//! [`Plan::parse`] accepts one optional trailing newline; everything else is
//! rejected with a byte-offset [`PlanError::Parse`], so a malformed plan —
//! or a truncated one — can never panic a service that deserializes it.
//!
//! # Round-trip guarantees
//!
//! * `Plan::parse(&plan.to_text()) == Ok(plan)` for every plan
//!   (bit-identical; proptested in `tests/plan.rs`);
//! * `plan.to_embedding()` agrees with [`crate::auto::embed`] on every node
//!   for closed-form plans (differential test, same suite);
//! * table-backed plans revalidate through [`Embedding::from_table`], so a
//!   deserialized table that is too short, out of range, or non-injective is
//!   a typed error, never a panic.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use topology::{GraphKind, Grid, Shape};

use crate::auto;
use crate::embedding::Embedding;
use crate::error::EmbeddingError;

/// Why a plan could not be built, parsed, or rebuilt into an embedding.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// The serialized text is malformed.
    Parse {
        /// Byte offset of the failure within the input.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A closed-form plan's recorded construction does not match what the
    /// planner builds for the pair today — the plan was produced by a
    /// different (older or newer) planner and must not be silently
    /// reinterpreted.
    ConstructionMismatch {
        /// The construction the plan recorded.
        recorded: String,
        /// The construction the planner builds now.
        rebuilt: String,
    },
    /// An underlying embedding error (unsupported pair, size mismatch,
    /// invalid table, …).
    Embedding(EmbeddingError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Parse { offset, message } => {
                write!(f, "invalid plan at byte {offset}: {message}")
            }
            PlanError::ConstructionMismatch { recorded, rebuilt } => write!(
                f,
                "plan records construction {recorded:?} but the planner builds {rebuilt:?}"
            ),
            PlanError::Embedding(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Embedding(error) => Some(error),
            _ => None,
        }
    }
}

impl From<EmbeddingError> for PlanError {
    fn from(value: EmbeddingError) -> Self {
        PlanError::Embedding(value)
    }
}

/// A serializable description of an embedding: guest and host graphs, the
/// construction's name, its dilation figure, and an optional explicit
/// placement table. See the [module docs](self) for the text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    guest: Grid,
    host: Grid,
    construction: String,
    dilation: u64,
    table: Option<Arc<[u64]>>,
}

impl Plan {
    /// Describes the paper's construction for `(guest, host)`: runs the
    /// planner, records the chosen construction's name and predicted
    /// dilation, and stores no table — [`Plan::to_embedding`] rebuilds the
    /// closure from the shapes alone.
    ///
    /// # Errors
    ///
    /// The planner's own errors ([`EmbeddingError::SizeMismatch`],
    /// [`EmbeddingError::Unsupported`]), wrapped in
    /// [`PlanError::Embedding`].
    pub fn closed_form(guest: &Grid, host: &Grid) -> Result<Plan, PlanError> {
        let embedding = auto::embed(guest, host)?;
        let dilation = auto::predicted_dilation(guest, host)?;
        Ok(Plan {
            guest: guest.clone(),
            host: host.clone(),
            construction: embedding.name().to_string(),
            dilation,
            table: None,
        })
    }

    /// Describes an already-constructed closed-form embedding without
    /// re-running the planner — for callers (like `explab`'s trial runner)
    /// that hold the [`crate::auto::embed`] result in hand. The construction
    /// name is recorded as given; [`Plan::to_embedding`] re-validates it
    /// against the planner, so a misdescribed plan fails loudly there
    /// rather than silently rebuilding a different mapping.
    pub fn describing(guest: &Grid, host: &Grid, construction: &str, dilation: u64) -> Plan {
        Plan {
            guest: guest.clone(),
            host: host.clone(),
            construction: construction.to_string(),
            dilation,
            table: None,
        }
    }

    /// A table-backed plan: the placement is the explicit `table` (guest
    /// node index → host node index), e.g. an annealing-refined placement
    /// with no closed form. The table is validated here, once, so every
    /// later [`Plan::to_embedding`] is infallible in practice.
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::SizeMismatch`] / [`EmbeddingError::InvalidTable`]
    /// via [`Embedding::from_table`]'s validation, wrapped in
    /// [`PlanError::Embedding`].
    pub fn with_table(
        guest: Grid,
        host: Grid,
        construction: impl Into<String>,
        dilation: u64,
        table: Vec<u64>,
    ) -> Result<Plan, PlanError> {
        let construction = construction.into();
        let table: Arc<[u64]> = table.into();
        // Validation only; the embedding itself is rebuilt on demand.
        Embedding::from_table(
            guest.clone(),
            host.clone(),
            construction.clone(),
            table.to_vec(),
        )?;
        Ok(Plan {
            guest,
            host,
            construction,
            dilation,
            table: Some(table),
        })
    }

    /// The guest graph.
    pub fn guest(&self) -> &Grid {
        &self.guest
    }

    /// The host graph.
    pub fn host(&self) -> &Grid {
        &self.host
    }

    /// The recorded construction name (e.g. `"U_V"`,
    /// `"optimized(congestion, T_L)"`).
    pub fn construction(&self) -> &str {
        &self.construction
    }

    /// The recorded dilation figure: the planner's predicted dilation for
    /// closed-form plans, the caller-supplied (typically measured) figure
    /// for table-backed ones.
    pub fn dilation(&self) -> u64 {
        self.dilation
    }

    /// The explicit placement table, if this plan carries one.
    pub fn table(&self) -> Option<&[u64]> {
        self.table.as_deref()
    }

    /// Rebuilds the live embedding this plan describes.
    ///
    /// Table-backed plans revalidate and wrap their table; closed-form plans
    /// re-run the planner and check that it still picks the recorded
    /// construction.
    ///
    /// # Errors
    ///
    /// [`PlanError::ConstructionMismatch`] when the planner's choice for the
    /// pair no longer matches the plan; [`PlanError::Embedding`] for planner
    /// or table errors.
    pub fn to_embedding(&self) -> Result<Embedding, PlanError> {
        match &self.table {
            Some(table) => Ok(Embedding::from_table(
                self.guest.clone(),
                self.host.clone(),
                self.construction.clone(),
                table.to_vec(),
            )?),
            None => {
                let embedding = auto::embed(&self.guest, &self.host)?;
                if embedding.name() != self.construction {
                    return Err(PlanError::ConstructionMismatch {
                        recorded: self.construction.clone(),
                        rebuilt: embedding.name().to_string(),
                    });
                }
                Ok(embedding)
            }
        }
    }

    /// Serializes the plan as one line of text (no trailing newline). The
    /// output is canonical: equal plans serialize identically, and
    /// [`Plan::parse`] restores the plan bit-identically.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("plan v1 guest=");
        out.push_str(&format_grid_spec(&self.guest));
        out.push_str(" host=");
        out.push_str(&format_grid_spec(&self.host));
        out.push_str(&format!(" dilation={} construction=\"", self.dilation));
        escape_into(&mut out, &self.construction);
        out.push_str("\" table=");
        match &self.table {
            None => out.push('-'),
            Some(table) => {
                for (i, y) in table.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&y.to_string());
                }
            }
        }
        out
    }

    /// Parses the text format of [`Plan::to_text`] (one optional trailing
    /// newline is tolerated). Table-backed plans are fully re-validated.
    ///
    /// # Errors
    ///
    /// [`PlanError::Parse`] with the byte offset of the first defect;
    /// [`PlanError::Embedding`] when the fields parse but do not form a
    /// valid plan (size mismatch, invalid table, …).
    pub fn parse(text: &str) -> Result<Plan, PlanError> {
        let mut cursor = Cursor::new(text);
        cursor.literal("plan v1 guest=")?;
        let guest = cursor.grid_spec()?;
        cursor.literal(" host=")?;
        let host = cursor.grid_spec()?;
        cursor.literal(" dilation=")?;
        let dilation = cursor.number()?;
        cursor.literal(" construction=")?;
        let construction = cursor.quoted_string()?;
        cursor.literal(" table=")?;
        let table = cursor.table()?;
        cursor.end()?;
        match table {
            None => Ok(Plan {
                guest,
                host,
                construction,
                dilation,
                table: None,
            }),
            Some(table) => Plan::with_table(guest, host, construction, dilation, table),
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl FromStr for Plan {
    type Err = PlanError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Plan::parse(s)
    }
}

/// Formats a graph as the wire spec `torus:4x2x3` / `mesh:4x6` — the inverse
/// of [`parse_grid_spec`], shared with the `embd` service protocol.
pub fn format_grid_spec(grid: &Grid) -> String {
    let mut out = String::with_capacity(8 + 4 * grid.dim());
    out.push_str(match grid.kind() {
        GraphKind::Torus => "torus:",
        GraphKind::Mesh => "mesh:",
    });
    for (i, &l) in grid.shape().radices().iter().enumerate() {
        if i > 0 {
            out.push('x');
        }
        out.push_str(&l.to_string());
    }
    out
}

/// Parses the wire spec `torus:4x2x3` / `mesh:4x6` into a graph, with typed
/// byte-offset errors for every malformation (unknown kind, empty or
/// non-numeric radices, radices `< 2`, size overflow).
///
/// # Errors
///
/// [`PlanError::Parse`] with the offset of the defect within `spec`.
pub fn parse_grid_spec(spec: &str) -> Result<Grid, PlanError> {
    let mut cursor = Cursor::new(spec);
    let grid = cursor.grid_spec()?;
    cursor.end()?;
    Ok(grid)
}

/// Appends `s` to `out` with the escape scheme of the plan format: `\"`,
/// `\\`, `\n`, `\t`, `\r`, and `\uXXXX` for the remaining control
/// characters. Everything else (including non-ASCII) passes through as raw
/// UTF-8. This is a valid JSON string body, so explab's record writer uses
/// it too.
pub fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// A byte cursor over the serialized form, producing offset-bearing parse
/// errors. All multi-byte reasoning is done on `char` boundaries via
/// `str` slicing, so the cursor can never split a UTF-8 sequence.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor { text, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> PlanError {
        PlanError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// Consumes an exact literal.
    fn literal(&mut self, literal: &str) -> Result<(), PlanError> {
        if self.rest().starts_with(literal) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(self.error(format!("expected {literal:?}")))
        }
    }

    /// Consumes a decimal `u64`.
    fn number(&mut self) -> Result<u64, PlanError> {
        let digits: usize = self
            .rest()
            .bytes()
            .take_while(|b| b.is_ascii_digit())
            .count();
        if digits == 0 {
            return Err(self.error("expected a number"));
        }
        let text = &self.rest()[..digits];
        let value = text
            .parse::<u64>()
            .map_err(|_| self.error(format!("number {text:?} does not fit in 64 bits")))?;
        self.pos += digits;
        Ok(value)
    }

    /// Consumes a graph spec: `torus:` or `mesh:` followed by `x`-separated
    /// radices.
    fn grid_spec(&mut self) -> Result<Grid, PlanError> {
        let kind = if self.rest().starts_with("torus:") {
            self.pos += "torus:".len();
            GraphKind::Torus
        } else if self.rest().starts_with("mesh:") {
            self.pos += "mesh:".len();
            GraphKind::Mesh
        } else {
            return Err(self.error("expected a graph kind (\"torus:\" or \"mesh:\")"));
        };
        let mut radices: Vec<u32> = Vec::new();
        loop {
            let digits: usize = self
                .rest()
                .bytes()
                .take_while(|b| b.is_ascii_digit())
                .count();
            if digits == 0 {
                return Err(self.error("expected a radix"));
            }
            let text = &self.rest()[..digits];
            let radix = text
                .parse::<u32>()
                .map_err(|_| self.error(format!("radix {text:?} does not fit in 32 bits")))?;
            radices.push(radix);
            self.pos += digits;
            if self.rest().starts_with('x') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let shape = Shape::new(radices).map_err(|e| self.error(format!("invalid shape: {e}")))?;
        Ok(Grid::new(kind, shape))
    }

    /// Consumes a quoted string with the escape scheme of [`escape_into`],
    /// decoding `\uXXXX` escapes (including surrogate pairs) back to
    /// characters.
    fn quoted_string(&mut self) -> Result<String, PlanError> {
        self.literal("\"")?;
        let mut out = String::new();
        loop {
            let rest = self.rest();
            let Some(ch) = rest.chars().next() else {
                return Err(self.error("unterminated string"));
            };
            match ch {
                '"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                '\\' => {
                    self.pos += 1;
                    let Some(escaped) = self.rest().chars().next() else {
                        return Err(self.error("unterminated escape"));
                    };
                    match escaped {
                        '"' | '\\' => {
                            out.push(escaped);
                            self.pos += 1;
                        }
                        'n' => {
                            out.push('\n');
                            self.pos += 1;
                        }
                        't' => {
                            out.push('\t');
                            self.pos += 1;
                        }
                        'r' => {
                            out.push('\r');
                            self.pos += 1;
                        }
                        'u' => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                        }
                        other => {
                            return Err(self.error(format!("unsupported escape \\{other}")));
                        }
                    }
                }
                c => {
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Decodes the `XXXX` of a `\uXXXX` escape whose `\u` has already been
    /// consumed, pairing a high surrogate with a following `\uXXXX` low
    /// surrogate (and rejecting lone or mismatched surrogates).
    fn unicode_escape(&mut self) -> Result<char, PlanError> {
        let first = self.hex4()?;
        let code = match first {
            0xD800..=0xDBFF => {
                // A high surrogate must be followed by an escaped low
                // surrogate; together they name one astral code point.
                self.literal("\\u")
                    .map_err(|_| self.error("high surrogate not followed by \\u escape"))?;
                let second = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(self.error(format!(
                        "high surrogate {first:04x} followed by non-surrogate {second:04x}"
                    )));
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            }
            0xDC00..=0xDFFF => {
                return Err(self.error(format!("lone low surrogate {first:04x}")));
            }
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.error(format!("non-scalar code point {code:x}")))
    }

    /// Consumes exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, PlanError> {
        let rest = self.rest();
        if rest.len() < 4 || !rest.as_bytes()[..4].iter().all(u8::is_ascii_hexdigit) {
            return Err(self.error("expected four hex digits"));
        }
        let value = u32::from_str_radix(&rest[..4], 16).expect("four hex digits");
        self.pos += 4;
        Ok(value)
    }

    /// Consumes the table field: `-` or a comma-separated list of `u64`s.
    fn table(&mut self) -> Result<Option<Vec<u64>>, PlanError> {
        if self.rest().starts_with('-') {
            self.pos += 1;
            return Ok(None);
        }
        let mut table = Vec::new();
        loop {
            table.push(self.number()?);
            if self.rest().starts_with(',') {
                self.pos += 1;
            } else {
                return Ok(Some(table));
            }
        }
    }

    /// Requires the input to be exhausted (tolerating one trailing newline).
    fn end(&mut self) -> Result<(), PlanError> {
        if self.rest() == "\n" {
            self.pos += 1;
        }
        if self.rest().is_empty() {
            Ok(())
        } else {
            Err(self.error("trailing characters after the plan"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    #[test]
    fn closed_form_plan_round_trips() {
        let guest = Grid::torus(shape(&[4, 2, 3]));
        let host = Grid::mesh(shape(&[4, 6]));
        let plan = Plan::closed_form(&guest, &host).unwrap();
        assert!(plan.table().is_none());
        let text = plan.to_text();
        assert!(text.starts_with("plan v1 guest=torus:4x2x3 host=mesh:4x6 "));
        assert!(text.ends_with(" table=-"));
        assert_eq!(Plan::parse(&text).unwrap(), plan);
        assert_eq!(text.parse::<Plan>().unwrap(), plan);
        assert_eq!(plan.to_string(), text);
        // One trailing newline is tolerated (wire frames may carry one).
        assert_eq!(Plan::parse(&format!("{text}\n")).unwrap(), plan);
    }

    #[test]
    fn table_plan_round_trips_and_rebuilds() {
        let guest = Grid::mesh(shape(&[2, 2]));
        let host = Grid::mesh(shape(&[4]));
        let plan =
            Plan::with_table(guest.clone(), host.clone(), "refined", 1, vec![0, 1, 3, 2]).unwrap();
        let text = plan.to_text();
        assert!(text.ends_with(" table=0,1,3,2"));
        let parsed = Plan::parse(&text).unwrap();
        assert_eq!(parsed, plan);
        let embedding = parsed.to_embedding().unwrap();
        assert_eq!(embedding.name(), "refined");
        for (x, &y) in [0u64, 1, 3, 2].iter().enumerate() {
            assert_eq!(embedding.map_index(x as u64), y);
        }
    }

    #[test]
    fn closed_form_rebuild_matches_planner() {
        let guest = Grid::hypercube(4).unwrap();
        let host = Grid::mesh(shape(&[4, 4]));
        let plan = Plan::closed_form(&guest, &host).unwrap();
        let rebuilt = plan.to_embedding().unwrap();
        let direct = auto::embed(&guest, &host).unwrap();
        assert_eq!(rebuilt.name(), direct.name());
        for x in 0..guest.size() {
            assert_eq!(rebuilt.map_index(x), direct.map_index(x));
        }
    }

    #[test]
    fn describing_mismatch_is_a_typed_error() {
        let guest = Grid::torus(shape(&[4, 2, 3]));
        let host = Grid::mesh(shape(&[4, 6]));
        let plan = Plan::describing(&guest, &host, "not the real construction", 1);
        assert!(matches!(
            plan.to_embedding(),
            Err(PlanError::ConstructionMismatch { .. })
        ));
    }

    #[test]
    fn construction_names_escape_and_unescape() {
        let guest = Grid::mesh(shape(&[2, 2]));
        let host = Grid::mesh(shape(&[2, 2]));
        for name in [
            "π ∘ \"quoted\"",
            "back\\slash",
            "tab\there",
            "new\nline",
            "ctrl\u{1}char",
            "astral 😀 smile",
            "µ ✓",
        ] {
            let plan = Plan::describing(&guest, &host, name, 1);
            let parsed = Plan::parse(&plan.to_text()).unwrap();
            assert_eq!(parsed.construction(), name);
            assert_eq!(parsed, plan);
        }
    }

    #[test]
    fn unicode_escapes_decode_including_surrogate_pairs() {
        let header = "plan v1 guest=mesh:2x2 host=mesh:2x2 dilation=1 construction=";
        for (quoted, expected) in [(r#""µ""#, "µ"), (r#""✓""#, "✓"), (r#""😀""#, "😀")] {
            let text = format!("{header}{quoted} table=-");
            assert_eq!(Plan::parse(&text).unwrap().construction(), expected);
        }
        for (quoted, defect) in [
            (r#""\ud800""#, "lone high surrogate"),
            (r#""\ud800x""#, "high surrogate without \\u"),
            (r#""\ud800A""#, "high surrogate + non-surrogate"),
            (r#""\udc00""#, "lone low surrogate"),
            (r#""\uzzzz""#, "non-hex digits"),
        ] {
            let text = format!("{header}{quoted} table=-");
            assert!(
                matches!(Plan::parse(&text), Err(PlanError::Parse { .. })),
                "{defect}"
            );
        }
    }

    #[test]
    fn malformed_plans_are_typed_parse_errors() {
        for bad in [
            "",
            "plan v2 guest=mesh:2x2 host=mesh:2x2 dilation=1 construction=\"x\" table=-",
            "plan v1 guest=cube:2x2 host=mesh:2x2 dilation=1 construction=\"x\" table=-",
            "plan v1 guest=mesh:2x2 host=mesh:2x2 dilation=one construction=\"x\" table=-",
            "plan v1 guest=mesh:2x2 host=mesh:2x2 dilation=1 construction=\"x table=-",
            "plan v1 guest=mesh:2x2 host=mesh:2x2 dilation=1 construction=\"x\" table=0,1,2,",
            "plan v1 guest=mesh:2x2 host=mesh:2x2 dilation=1 construction=\"x\" table=- junk",
            "plan v1 guest=mesh:1x2 host=mesh:2 dilation=1 construction=\"x\" table=-",
            "plan v1 guest=mesh:2x2 host=mesh:2x2 dilation=99999999999999999999 construction=\"x\" table=-",
        ] {
            assert!(
                matches!(Plan::parse(bad), Err(PlanError::Parse { .. })),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn invalid_tables_are_typed_embedding_errors() {
        let header = "plan v1 guest=mesh:2x2 host=mesh:2x2 dilation=1 construction=\"x\"";
        for (table, defect) in [
            ("0,1,2", "too short"),
            ("0,1,2,4", "out of range"),
            ("0,1,2,2", "repeated image"),
        ] {
            let text = format!("{header} table={table}");
            assert!(
                matches!(
                    Plan::parse(&text),
                    Err(PlanError::Embedding(
                        EmbeddingError::InvalidTable { .. } | EmbeddingError::SizeMismatch { .. }
                    ))
                ),
                "{defect}"
            );
        }
    }

    #[test]
    fn grid_specs_round_trip_and_reject_malformations() {
        for spec in ["torus:4x2x3", "mesh:4x6", "torus:2", "mesh:65535x2"] {
            let grid = parse_grid_spec(spec).unwrap();
            assert_eq!(format_grid_spec(&grid), spec);
        }
        for bad in [
            "",
            "torus",
            "torus:",
            "mesh:4x",
            "mesh:x4",
            "ring:4",
            "mesh:4,6",
            "mesh:1x4",
            "mesh:0x4",
            "torus:4x2x3 ",
            "mesh:99999999999",
            "torus:4294967296",
        ] {
            assert!(
                matches!(parse_grid_spec(bad), Err(PlanError::Parse { .. })),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn errors_display_helpfully() {
        let parse = Plan::parse("nope").unwrap_err();
        assert!(parse.to_string().contains("invalid plan at byte 0"));
        let mismatch = PlanError::ConstructionMismatch {
            recorded: "a".into(),
            rebuilt: "b".into(),
        };
        assert!(mismatch.to_string().contains("planner builds"));
        let wrapped: PlanError = EmbeddingError::SizeMismatch { guest: 4, host: 6 }.into();
        assert!(wrapped.to_string().contains("same size"));
        assert!(std::error::Error::source(&wrapped).is_some());
    }
}
