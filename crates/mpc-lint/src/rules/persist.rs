//! Rule `persist-symmetry`: `Persist::save` and `Persist::load` must
//! mirror each other, field for field, in order.
//!
//! The snapshot container gives byte-stability (save → load → save is
//! bit-identical) a *runtime* property suite; this rule is its static
//! twin. Each `impl Persist` body is scanned for its ordered event
//! streams:
//!
//! * save side — `w.put_u32(self.field)` primitive writes and
//!   `self.field.save(w)` / `T::save(..)` nested writes;
//! * load side — `r.take_u32()?` primitive reads and `T::load(r)?`
//!   nested reads, with the bound name recovered from the surrounding
//!   `let name = …` / `name: …` struct-literal key / `*name = …`
//!   assignment.
//!
//! Three checks run over the streams: the primitive *kind sequence*
//! must match one-to-one (`u64` and `usize` are the same wire word;
//! skipped when either body branches via `match`, where the flat
//! stream interleaves arms); field *names* written by save must each
//! be read by load; and the shared names must appear in the same
//! order. Name checks only run when the two sides share at least one
//! name — impls that rename through locals (`let v = …; Ok(M61(v))`)
//! opt out of name matching but still get the kind check. Derived
//! writes (`w.put_usize(self.pow.len())`) and reconstructed load
//! fields are deliberately nameless/eventless and never reported.

use crate::graph::Workspace;
use crate::lexer::Token;
use crate::report::Finding;
use crate::scan;
use crate::RULE_PERSIST;

/// One save-side write or load-side read event.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Ev {
    /// Wire kind: a canonicalized primitive suffix (`u8`, `u32`,
    /// `w64`, …) or `nested` for a `Persist` sub-object.
    pub kind: String,
    /// The field/binding name, when one is recoverable.
    pub name: Option<String>,
    /// 1-based line.
    pub line: u32,
}

/// `u64` and `usize` share the on-wire word encoding.
fn canonical_kind(suffix: &str) -> String {
    match suffix {
        "u64" | "usize" => "w64".to_string(),
        other => other.to_string(),
    }
}

/// The argument tokens of the call whose `(` is at `open`
/// (exclusive), truncated at a trailing `as` cast.
fn call_args(tokens: &[Token], open: usize) -> &[Token] {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct('(') {
            depth += 1;
        } else if tokens[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    let args = &tokens[open + 1..j.min(tokens.len())];
    match args.iter().position(|t| t.is_ident("as")) {
        Some(cast) => &args[..cast],
        None => args,
    }
}

/// Field name from a primitive-write argument list: `self.field`,
/// `field`, or `*field` name the field; anything longer (method
/// calls, arithmetic, whole expressions) is a derived write.
fn write_arg_name(args: &[Token]) -> Option<String> {
    match args {
        [a, b, c] if a.is_ident("self") && b.is_punct('.') => c.ident().map(str::to_string),
        [a, b] if a.is_punct('*') => b.ident().map(str::to_string),
        [a] => a.ident().map(str::to_string),
        _ => None,
    }
}

/// Token indices `{';', '{', '}', ',', '('}` bound a statement /
/// struct-literal field / argument position.
fn is_boundary(t: &Token) -> bool {
    t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(',') || t.is_punct('(')
}

/// Recovers the binding name for a read whose expression starts at
/// token `start`: scans back to the nearest boundary and matches
/// `let [mut] name [..] =`, `name:` (struct-literal key), `*name =`,
/// or `name =`.
fn read_binding_name(tokens: &[Token], body_lo: usize, start: usize) -> Option<String> {
    let mut b = start;
    while b > body_lo && !is_boundary(&tokens[b - 1]) {
        b -= 1;
    }
    let seg = &tokens[b..start];
    if let Some(let_pos) = seg.iter().position(|t| t.is_ident("let")) {
        return seg[let_pos + 1..]
            .iter()
            .find(|t| t.ident().is_some_and(|s| s != "mut"))
            .and_then(|t| t.ident())
            .map(str::to_string);
    }
    match seg {
        [k, c] if c.is_punct(':') => k.ident().map(str::to_string),
        [.., s, n, e] if s.is_punct('*') && e.is_punct('=') => n.ident().map(str::to_string),
        [.., n, e] if e.is_punct('=') && n.ident().is_some() => n.ident().map(str::to_string),
        _ => None,
    }
}

/// Extracts the ordered save-side event stream from a body range.
pub(crate) fn save_events(tokens: &[Token], body: (usize, usize)) -> Vec<Ev> {
    let mut out = Vec::new();
    for i in body.0..body.1 {
        let Some(name) = tokens[i].ident() else {
            continue;
        };
        let open = i + 1;
        if !tokens.get(open).is_some_and(|t| t.is_punct('(')) || open >= body.1 {
            continue;
        }
        if let Some(suffix) = name.strip_prefix("put_") {
            if i > 0 && tokens[i - 1].is_punct('.') {
                out.push(Ev {
                    kind: canonical_kind(suffix),
                    name: write_arg_name(call_args(tokens, open)),
                    line: tokens[i].line,
                });
            }
        } else if name == "save" {
            if i > 0 && tokens[i - 1].is_punct('.') {
                // `self.field.save(w)` / `field.save(w)`.
                let recv = (i >= 2).then(|| &tokens[i - 2]).and_then(|t| t.ident());
                out.push(Ev {
                    kind: "nested".to_string(),
                    name: recv.filter(|r| *r != "self").map(str::to_string),
                    line: tokens[i].line,
                });
            } else if i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':') {
                // `T::save(self, w)` (the Arc forwarding idiom).
                out.push(Ev {
                    kind: "nested".to_string(),
                    name: None,
                    line: tokens[i].line,
                });
            }
        }
    }
    out
}

/// First token of the path ending at the `load` ident at `load_idx`
/// (which the caller has verified is preceded by `::`). Walks back
/// over `ident::` segments *and* turbofish `::<…>::` groups, so
/// `BTreeMap::<TourId, Shard>::load` starts at `BTreeMap` — a lone
/// `:` (struct key, type ascription) is never a path separator, and
/// the commas inside the turbofish stay out of the binding scan.
fn path_start(tokens: &[Token], load_idx: usize) -> usize {
    let mut p = load_idx;
    loop {
        if p < 3 || !tokens[p - 1].is_punct(':') || !tokens[p - 2].is_punct(':') {
            return p;
        }
        if tokens[p - 3].ident().is_some() {
            p -= 3;
        } else if tokens[p - 3].is_punct('>') {
            // Skip the `<…>` group back to its matching `<`.
            let mut depth = 0i32;
            let mut q = p - 3;
            loop {
                if tokens[q].is_punct('>') {
                    depth += 1;
                } else if tokens[q].is_punct('<') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if q == 0 {
                    return p;
                }
                q -= 1;
            }
            // Turbofish: the group is itself preceded by `ident::`.
            if q >= 3
                && tokens[q - 1].is_punct(':')
                && tokens[q - 2].is_punct(':')
                && tokens[q - 3].ident().is_some()
            {
                p = q - 3;
            } else {
                return p;
            }
        } else {
            return p;
        }
    }
}

/// Extracts the ordered load-side event stream from a body range.
pub(crate) fn load_events(tokens: &[Token], body: (usize, usize)) -> Vec<Ev> {
    let mut out = Vec::new();
    for i in body.0..body.1 {
        let Some(name) = tokens[i].ident() else {
            continue;
        };
        let open = i + 1;
        if !tokens.get(open).is_some_and(|t| t.is_punct('(')) || open >= body.1 {
            continue;
        }
        if let Some(suffix) = name.strip_prefix("take_") {
            if i > 0 && tokens[i - 1].is_punct('.') {
                // `r.take_u32()?` — the expression starts at the
                // receiver token.
                let expr_start = i.saturating_sub(2);
                out.push(Ev {
                    kind: canonical_kind(suffix),
                    name: read_binding_name(tokens, body.0, expr_start),
                    line: tokens[i].line,
                });
            }
        } else if name == "load"
            && i >= 2
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
        {
            out.push(Ev {
                kind: "nested".to_string(),
                name: read_binding_name(tokens, body.0, path_start(tokens, i)),
                line: tokens[i].line,
            });
        }
    }
    out
}

/// First-occurrence order of the named events' names.
fn name_order(evs: &[Ev]) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    for e in evs {
        if let Some(n) = &e.name {
            if !out.contains(&n.as_str()) {
                out.push(n);
            }
        }
    }
    out
}

fn describe(ev: &Ev) -> String {
    match &ev.name {
        Some(n) => format!("`{n}` ({})", ev.kind),
        None => format!("unnamed {}", ev.kind),
    }
}

/// Runs the symmetry checks for one `impl Persist for <ty>`.
pub(crate) fn check_impl(
    file: &str,
    ty: &str,
    tokens: &[Token],
    save_body: (usize, usize),
    load_body: (usize, usize),
    impl_line: u32,
) -> Vec<Finding> {
    let saves = save_events(tokens, save_body);
    let loads = load_events(tokens, load_body);
    if saves.is_empty() && loads.is_empty() {
        return Vec::new(); // macro bodies, forwarding impls
    }
    let mut out = Vec::new();
    let finding = |line: u32, message: String| Finding {
        rule: RULE_PERSIST,
        file: file.to_string(),
        line,
        message,
    };

    let branching = tokens[save_body.0..save_body.1]
        .iter()
        .chain(&tokens[load_body.0..load_body.1])
        .any(|t| t.is_ident("match"));
    if !branching {
        // Check 1: the wire-kind sequences must agree one-to-one.
        let mut diverged = false;
        for (k, (s, l)) in saves.iter().zip(loads.iter()).enumerate() {
            if s.kind != l.kind {
                out.push(finding(
                    l.line,
                    format!(
                        "`Persist` for `{ty}`: save writes {} at position {} but load reads \
                         {} — the snapshot byte stream cannot round-trip",
                        describe(s),
                        k + 1,
                        describe(l),
                    ),
                ));
                diverged = true;
                break;
            }
        }
        if !diverged && saves.len() != loads.len() {
            if saves.len() > loads.len() {
                let extra = &saves[loads.len()];
                out.push(finding(
                    extra.line,
                    format!(
                        "`Persist` for `{ty}`: save writes {} but load never reads it — \
                         trailing snapshot bytes would be misparsed by the next field",
                        describe(extra),
                    ),
                ));
            } else {
                let extra = &loads[saves.len()];
                out.push(finding(
                    extra.line,
                    format!(
                        "`Persist` for `{ty}`: load reads {} that save never writes — \
                         load would consume the next object's bytes",
                        describe(extra),
                    ),
                ));
            }
        }
    }

    let save_names = name_order(&saves);
    let load_names = name_order(&loads);
    let shared: Vec<&str> = save_names
        .iter()
        .copied()
        .filter(|n| load_names.contains(n))
        .collect();
    if !shared.is_empty() {
        // Check 2: every named save field is read back.
        for s in &saves {
            if let Some(n) = &s.name {
                if !load_names.contains(&n.as_str())
                    && !out.iter().any(|f| f.message.contains(&format!("`{n}`")))
                {
                    out.push(finding(
                        s.line,
                        format!(
                            "`Persist` for `{ty}`: field `{n}` is written by save but never \
                             read by load — the byte-stability property suite would catch \
                             this only for inputs that exercise `{n}`",
                        ),
                    ));
                }
            }
        }
        // Check 3: shared names keep their order.
        let load_shared: Vec<&str> = load_names
            .iter()
            .copied()
            .filter(|n| shared.contains(n))
            .collect();
        if shared != load_shared {
            let (pos, (s, l)) = shared
                .iter()
                .zip(load_shared.iter())
                .enumerate()
                .find(|(_, (s, l))| s != l)
                .map(|(k, (s, l))| (k, (*s, *l)))
                .unwrap_or((0, (shared[0], load_shared[0])));
            out.push(finding(
                impl_line,
                format!(
                    "`Persist` for `{ty}`: save and load disagree on field order at \
                     position {} (save: `{s}`, load: `{l}`) — snapshot bytes land in the \
                     wrong fields",
                    pos + 1,
                ),
            ));
        }
    }
    out
}

/// Checks every production `impl Persist` in the workspace.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !crate::roles_for(&file.rel_path).maintain {
            continue; // same scope: library sources, tools exempt
        }
        let tokens = &file.lexed.tokens;
        for im in &ws.impls[fi] {
            if im.trait_name.as_deref() != Some("Persist")
                || scan::in_ranges(&file.test_ranges, im.line)
            {
                continue;
            }
            let ty = im.type_name.clone().unwrap_or_else(|| "?".to_string());
            let mut save_body = None;
            let mut load_body = None;
            for node in &ws.fns {
                if node.file != fi || !(im.body.0 <= node.sig.0 && node.sig.0 < im.body.1) {
                    continue;
                }
                match node.name.as_str() {
                    "save" => save_body = Some(node.body),
                    "load" => load_body = Some(node.body),
                    _ => {}
                }
            }
            let (Some(sb), Some(lb)) = (save_body, load_body) else {
                continue; // partial impls do not compile; not ours
            };
            out.extend(check_impl(&file.rel_path, &ty, tokens, sb, lb, im.line));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FileIndex;

    fn run(src: &str) -> Vec<Finding> {
        let ws = Workspace::build(vec![FileIndex::new("crates/etf/src/x.rs", src)]);
        check(&ws)
    }

    const SYMMETRIC: &str = "impl Persist for DistEtf {\n\
         fn save(&self, w: &mut SnapshotWriter) {\n\
             w.put_u32(self.k);\n\
             w.put_u64(self.rounds);\n\
             self.seed.save(w);\n\
             w.put_usize(self.levels.len());\n\
         }\n\
         fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {\n\
             let k = r.take_u32()?;\n\
             let rounds = r.take_u64()?;\n\
             let seed = M61::load(r)?;\n\
             let blocks = r.take_usize()?;\n\
             Ok(DistEtf { k, rounds, seed, levels: rebuild(blocks) })\n\
         }\n\
     }";

    #[test]
    fn a_symmetric_impl_with_derived_writes_is_clean() {
        assert!(run(SYMMETRIC).is_empty(), "{:?}", run(SYMMETRIC));
    }

    #[test]
    fn a_dropped_load_read_names_the_field() {
        let src = SYMMETRIC.replace("let rounds = r.take_u64()?;\n", "");
        let f = run(&src);
        assert!(!f.is_empty(), "deleting a read must fire");
        assert!(
            f.iter().any(|x| x.message.contains("`rounds`")),
            "names the dropped field: {f:?}"
        );
    }

    #[test]
    fn swapped_load_order_is_reported() {
        let src = "impl Persist for Pair {\n\
             fn save(&self, w: &mut SnapshotWriter) {\n\
                 w.put_u32(self.a);\n\
                 w.put_u32(self.b);\n\
             }\n\
             fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {\n\
                 let b = r.take_u32()?;\n\
                 let a = r.take_u32()?;\n\
                 Ok(Pair { a, b })\n\
             }\n\
         }";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("field order"));
    }

    #[test]
    fn enum_match_impls_check_names_but_not_flat_kinds() {
        // The flattened kind streams interleave arms and differ
        // legitimately; the per-field name check still applies.
        let src = "impl Persist for Tester {\n\
             fn save(&self, w: &mut SnapshotWriter) {\n\
                 match self {\n\
                     Tester::Off => w.put_u8(0),\n\
                     Tester::On { alpha, beta } => {\n\
                         w.put_u8(1);\n\
                         alpha.save(w);\n\
                         w.put_u64(*beta);\n\
                     }\n\
                 }\n\
             }\n\
             fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {\n\
                 Ok(match r.take_u8()? {\n\
                     0 => Tester::Off,\n\
                     _ => Tester::On { alpha: M61::load(r)?, beta: r.take_u64()? },\n\
                 })\n\
             }\n\
         }";
        assert!(run(src).is_empty(), "{:?}", run(src));
        let broken = src.replace("beta: r.take_u64()?", "beta: fixed_beta()");
        let f = run(&broken);
        assert!(f.iter().any(|x| x.message.contains("`beta`")), "{f:?}");
    }

    #[test]
    fn turbofish_loads_recover_their_binding_names() {
        // Mirrors the real `DistEtf`/`Fingerprint` impls: two-parameter
        // turbofish paths (with a comma inside the generics) and a
        // struct-literal key in front of a turbofish path.
        let src = "impl Persist for DistEtf {\n\
             fn save(&self, w: &mut SnapshotWriter) {\n\
                 self.shards.save(w);\n\
                 self.family.save(w);\n\
             }\n\
             fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {\n\
                 let shards = BTreeMap::<TourId, Shard>::load(r)?;\n\
                 Ok(DistEtf { shards, family: Arc::<FingerprintFamily>::load(r)? })\n\
             }\n\
         }";
        assert!(run(src).is_empty(), "{:?}", run(src));
        let broken = src.replace("let shards = BTreeMap::<TourId, Shard>::load(r)?;\n", "");
        let f = run(&broken);
        assert!(f.iter().any(|x| x.message.contains("`shards`")), "{f:?}");
    }

    #[test]
    fn renamed_locals_skip_name_checks_but_keep_kinds() {
        let src = "impl Persist for M61 {\n\
             fn save(&self, w: &mut SnapshotWriter) { w.put_u64(self.0); }\n\
             fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {\n\
                 let v = r.take_u64()?;\n\
                 Ok(M61(v))\n\
             }\n\
         }";
        assert!(run(src).is_empty());
        let broken = src.replace("take_u64", "take_u32");
        assert_eq!(run(&broken).len(), 1, "kind mismatch still caught");
    }
}
