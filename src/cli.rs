//! Declarative, typed CLI flags for `soupctl`.
//!
//! Every subcommand declares its surface as a const [`CommandSpec`]: flag
//! name, type, default, and help line. Parsing then comes with the
//! properties the old ad-hoc string map could not give:
//!
//! - **Unknown flags are rejected** (usage error → exit 2) instead of
//!   silently ignored — a typo like `--epoch 50` fails loudly rather than
//!   running 50 default epochs.
//! - **Types are validated at parse time**, so command code reads values
//!   with infallible accessors instead of re-parsing strings.
//! - **Usage text is generated from the spec**, so help can never drift
//!   from what the parser actually accepts.
//!
//! Global observability flags ([`GLOBAL_FLAGS`]) are merged into every
//! command's surface at parse time.

use soup_error::SoupError;
use std::collections::HashMap;

/// The type a flag's value must parse as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagKind {
    /// Free-form string (paths, names, comma lists).
    Str,
    /// Unsigned integer (`u64`; narrower uses range-check in the command).
    U64,
    /// Floating point.
    F64,
    /// Presence-only switch; takes no value.
    Switch,
}

/// One declared flag.
#[derive(Debug, Clone, Copy)]
pub struct FlagDef {
    pub name: &'static str,
    pub kind: FlagKind,
    /// Placeholder in usage text (`FILE`, `N`, `F`, ...).
    pub value_name: &'static str,
    /// Pre-filled when the flag is absent; `None` + `required` = must be
    /// given, `None` + optional = accessor returns `None`.
    pub default: Option<&'static str>,
    pub required: bool,
    pub help: &'static str,
}

impl FlagDef {
    pub const fn str(name: &'static str, value_name: &'static str, help: &'static str) -> Self {
        FlagDef {
            name,
            kind: FlagKind::Str,
            value_name,
            default: None,
            required: false,
            help,
        }
    }

    pub const fn u64(name: &'static str, help: &'static str) -> Self {
        FlagDef {
            name,
            kind: FlagKind::U64,
            value_name: "N",
            default: None,
            required: false,
            help,
        }
    }

    pub const fn f64(name: &'static str, help: &'static str) -> Self {
        FlagDef {
            name,
            kind: FlagKind::F64,
            value_name: "F",
            default: None,
            required: false,
            help,
        }
    }

    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        FlagDef {
            name,
            kind: FlagKind::Switch,
            value_name: "",
            default: None,
            required: false,
            help,
        }
    }

    pub const fn required(mut self) -> Self {
        self.required = true;
        self
    }

    pub const fn default(mut self, value: &'static str) -> Self {
        self.default = Some(value);
        self
    }
}

/// Observability flags accepted by every command.
pub const GLOBAL_FLAGS: &[FlagDef] = &[
    FlagDef::str(
        "trace-out",
        "FILE",
        "stream a JSONL trace of the run, registry samples included",
    ),
    FlagDef::u64("metrics-interval-ms", "tick of the trace's samples").default("100"),
    FlagDef::switch(
        "metrics-summary",
        "print the span/counter report when the command finishes",
    ),
];

/// A subcommand's declared surface.
#[derive(Debug)]
pub struct CommandSpec {
    pub name: &'static str,
    pub summary: &'static str,
    /// Usage placeholder for positional arguments (`"DIR"`); empty means
    /// positionals are rejected.
    pub positional: &'static str,
    pub flags: &'static [FlagDef],
}

impl CommandSpec {
    fn find(&self, name: &str) -> Option<&'static FlagDef> {
        self.flags
            .iter()
            .chain(GLOBAL_FLAGS.iter())
            .find(|d| d.name == name)
    }

    /// Parse `args` against this spec. Any deviation — unknown flag,
    /// missing value or required flag, unparsable value, stray positional
    /// — is a [`SoupError::Usage`], which `soupctl` maps to exit 2.
    pub fn parse(&self, args: &[String]) -> soup_error::Result<Flags<'_>> {
        let mut values: HashMap<&'static str, String> = HashMap::new();
        let mut provided: Vec<&'static str> = Vec::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                if self.positional.is_empty() {
                    return Err(SoupError::usage(format!(
                        "{}: unexpected argument '{arg}'\n{}",
                        self.name,
                        self.usage()
                    )));
                }
                positional.push(arg.clone());
                i += 1;
                continue;
            };
            let Some(def) = self.find(name) else {
                return Err(SoupError::usage(format!(
                    "{}: unknown flag --{name}\n{}",
                    self.name,
                    self.usage()
                )));
            };
            if def.kind == FlagKind::Switch {
                values.insert(def.name, String::from("true"));
                provided.push(def.name);
                i += 1;
                continue;
            }
            let Some(value) = args.get(i + 1) else {
                return Err(SoupError::usage(format!(
                    "{}: --{name} needs a value",
                    self.name
                )));
            };
            match def.kind {
                FlagKind::U64 => {
                    value.parse::<u64>().map_err(|_| {
                        SoupError::usage(format!(
                            "{}: --{name}: cannot parse '{value}' as an unsigned integer",
                            self.name
                        ))
                    })?;
                }
                FlagKind::F64 => {
                    value.parse::<f64>().map_err(|_| {
                        SoupError::usage(format!(
                            "{}: --{name}: cannot parse '{value}' as a number",
                            self.name
                        ))
                    })?;
                }
                FlagKind::Str | FlagKind::Switch => {}
            }
            values.insert(def.name, value.clone());
            provided.push(def.name);
            i += 2;
        }
        for def in self.flags.iter().chain(GLOBAL_FLAGS.iter()) {
            if values.contains_key(def.name) {
                continue;
            }
            if let Some(default) = def.default {
                values.insert(def.name, default.to_string());
            } else if def.required {
                return Err(SoupError::usage(format!(
                    "{}: missing --{}\n{}",
                    self.name,
                    def.name,
                    self.usage()
                )));
            }
        }
        Ok(Flags {
            spec: self,
            values,
            provided,
            positional,
        })
    }

    /// Auto-generated usage block: synopsis plus one help line per flag.
    pub fn usage(&self) -> String {
        let mut synopsis = format!("usage: soupctl {}", self.name);
        if !self.positional.is_empty() {
            synopsis.push(' ');
            synopsis.push_str(self.positional);
        }
        let mut lines = vec![];
        for def in self.flags {
            let head = match def.kind {
                FlagKind::Switch => format!("--{}", def.name),
                _ => format!("--{} {}", def.name, def.value_name),
            };
            synopsis.push_str(&if def.required {
                format!(" {head}")
            } else {
                format!(" [{head}]")
            });
            let mut help = def.help.to_string();
            if let Some(default) = def.default {
                help.push_str(&format!(" (default {default})"));
            }
            lines.push(format!("  {head:<28} {help}"));
        }
        format!("{synopsis}\n{}\n{}", self.summary, lines.join("\n"))
    }
}

/// Parsed, validated flag values for one invocation.
#[derive(Debug)]
pub struct Flags<'a> {
    spec: &'a CommandSpec,
    values: HashMap<&'static str, String>,
    provided: Vec<&'static str>,
    /// Positional arguments, in order (only for specs that declare them).
    pub positional: Vec<String>,
}

impl Flags<'_> {
    fn def(&self, name: &str) -> &'static FlagDef {
        self.spec
            .find(name)
            .unwrap_or_else(|| panic!("flag --{name} not declared in spec '{}'", self.spec.name))
    }

    /// Was the flag given explicitly on the command line (vs defaulted or
    /// absent)?
    pub fn provided(&self, name: &str) -> bool {
        self.def(name);
        self.provided.contains(&name)
    }

    /// String value, if present (given or defaulted).
    pub fn str(&self, name: &str) -> Option<&str> {
        debug_assert_ne!(self.def(name).kind, FlagKind::Switch);
        self.values.get(name).map(String::as_str)
    }

    /// String value of a required or defaulted flag.
    pub fn req_str(&self, name: &str) -> &str {
        self.str(name)
            .unwrap_or_else(|| panic!("--{name} has neither value nor default"))
    }

    /// Integer value, if present. Parse already validated it.
    pub fn u64(&self, name: &str) -> Option<u64> {
        debug_assert_eq!(self.def(name).kind, FlagKind::U64);
        self.values.get(name).map(|v| v.parse().unwrap())
    }

    /// Integer value of a required or defaulted flag.
    pub fn req_u64(&self, name: &str) -> u64 {
        self.u64(name)
            .unwrap_or_else(|| panic!("--{name} has neither value nor default"))
    }

    /// [`Flags::req_u64`] narrowed to `usize`.
    pub fn req_usize(&self, name: &str) -> usize {
        self.req_u64(name) as usize
    }

    /// Float value, if present.
    pub fn f64(&self, name: &str) -> Option<f64> {
        debug_assert_eq!(self.def(name).kind, FlagKind::F64);
        self.values.get(name).map(|v| v.parse().unwrap())
    }

    /// Float value of a required or defaulted flag.
    pub fn req_f64(&self, name: &str) -> f64 {
        self.f64(name)
            .unwrap_or_else(|| panic!("--{name} has neither value nor default"))
    }

    /// Is the switch set?
    pub fn switch(&self, name: &str) -> bool {
        debug_assert_eq!(self.def(name).kind, FlagKind::Switch);
        self.values.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: CommandSpec = CommandSpec {
        name: "demo",
        summary: "demo command",
        positional: "",
        flags: &[
            FlagDef::str("data", "FILE", "dataset file").required(),
            FlagDef::u64("epochs", "epoch count").default("50"),
            FlagDef::f64("rate", "a rate"),
            FlagDef::switch("resume", "resume the run"),
        ],
    };

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_types_defaults_and_switches() {
        let flags = SPEC
            .parse(&args(&["--data", "ds.json", "--rate", "0.5", "--resume"]))
            .unwrap();
        assert_eq!(flags.req_str("data"), "ds.json");
        assert_eq!(flags.req_u64("epochs"), 50); // defaulted
        assert!(!flags.provided("epochs"));
        assert_eq!(flags.f64("rate"), Some(0.5));
        assert!(flags.switch("resume"));
        assert!(flags.provided("resume"));
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        let err = SPEC
            .parse(&args(&["--data", "x", "--epoch", "50"]))
            .unwrap_err();
        assert_eq!(err.kind(), "usage");
        assert!(err.to_string().contains("--epoch"), "{err}");
    }

    #[test]
    fn missing_required_flag_is_a_usage_error() {
        let err = SPEC.parse(&args(&["--epochs", "3"])).unwrap_err();
        assert_eq!(err.kind(), "usage");
        assert!(err.to_string().contains("--data"));
    }

    #[test]
    fn type_mismatch_is_a_usage_error() {
        for bad in [
            vec!["--data", "x", "--epochs", "many"],
            vec!["--data", "x", "--rate", "fast"],
            vec!["--data", "x", "--epochs", "-3"],
        ] {
            let err = SPEC.parse(&args(&bad)).unwrap_err();
            assert_eq!(err.kind(), "usage", "{bad:?}");
        }
    }

    #[test]
    fn missing_value_and_stray_positional_are_usage_errors() {
        assert_eq!(SPEC.parse(&args(&["--data"])).unwrap_err().kind(), "usage");
        assert_eq!(
            SPEC.parse(&args(&["--data", "x", "stray"]))
                .unwrap_err()
                .kind(),
            "usage"
        );
    }

    #[test]
    fn global_flags_parse_on_any_command() {
        let flags = SPEC
            .parse(&args(&[
                "--data",
                "x",
                "--trace-out",
                "t.jsonl",
                "--metrics-summary",
            ]))
            .unwrap();
        assert_eq!(flags.str("trace-out"), Some("t.jsonl"));
        assert!(flags.switch("metrics-summary"));
        assert_eq!(flags.req_u64("metrics-interval-ms"), 100);
    }

    #[test]
    fn usage_is_generated_from_the_spec() {
        let text = SPEC.usage();
        assert!(text.contains("usage: soupctl demo --data FILE"));
        assert!(text.contains("[--epochs N]"));
        assert!(text.contains("(default 50)"));
        assert!(text.contains("[--resume]"));
    }

    #[test]
    fn flags_may_interleave_with_positionals_when_declared() {
        const POS: CommandSpec = CommandSpec {
            name: "verify",
            summary: "verify artifacts",
            positional: "DIR",
            flags: &[FlagDef::switch("deep", "deep scan")],
        };
        let flags = POS.parse(&args(&["ckpts", "--deep"])).unwrap();
        assert_eq!(flags.positional, vec!["ckpts"]);
        assert!(flags.switch("deep"));
    }
}
