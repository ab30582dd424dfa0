//! The one argument parser behind every `toc` command.
//!
//! A command is a [`Command`] table entry: its positionals and exactly
//! the [`Flag`]s it honours, as shared groups. [`parse`] walks argv once
//! against that table — an unknown flag, a value flag without a value, a
//! repeated flag or a wrong positional count is an error naming the flag
//! and the command — and the help text is generated from the same table,
//! so what a command accepts, what it documents and what it rejects
//! cannot drift apart.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// One flag. An empty `metavar` makes it boolean; anything else consumes
/// the next argv token as its value.
pub struct Flag {
    pub name: &'static str,
    pub metavar: &'static str,
    pub help: &'static str,
}

/// `--name <metavar>`, the way help and error text show a flag.
impl Display for Flag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sep = if self.metavar.is_empty() { "" } else { " " };
        write!(f, "{}{sep}{}", self.name, self.metavar)
    }
}

/// A group of flags shared between commands.
pub type Group = &'static [&'static Flag];

/// One `toc` subcommand.
pub struct Command {
    pub name: &'static str,
    /// Metavars of the positional arguments, all required.
    pub positionals: &'static [&'static str],
    pub about: &'static str,
    pub groups: &'static [Group],
    pub run: fn(&Args) -> Result<(), String>,
}

impl Command {
    /// Every flag this command accepts.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|g| g.iter().copied())
    }

    /// `toc <name> <positionals> [flags]`.
    pub fn usage(&self) -> String {
        let flags = if self.groups.is_empty() {
            ""
        } else {
            " [flags]"
        };
        format!("toc {} {}{flags}", self.name, self.positionals.join(" "))
    }

    /// The `toc <name> --help` text.
    pub fn help(&self) -> String {
        let mut s = format!("{}\n  {}\n\n", self.usage(), self.about);
        for f in self.flags() {
            writeln!(s, "  {:<34} {}", f.to_string(), f.help).unwrap();
        }
        s
    }
}

/// The overview printed by `toc help`.
pub fn overview(commands: &[Command]) -> String {
    let mut s = String::from("toc — tuple-oriented compression for mini-batch SGD\n\n");
    for c in commands {
        writeln!(s, "  {}\n      {}", c.usage(), c.about).unwrap();
    }
    s + "\n`toc <command> --help` lists that command's flags.\n"
}

/// A parsed command line: positionals plus the flags that were given.
/// Flags are looked up by their table entry, never by string.
pub struct Args<'a> {
    pos: Vec<&'a str>,
    given: Vec<(&'static Flag, &'a str)>,
}

/// Walk `argv` (everything after the command name) once against `cmd`.
/// `None` means `-h` / `--help` was given.
pub fn parse<'a>(cmd: &'static Command, argv: &'a [String]) -> Result<Option<Args<'a>>, String> {
    let fail = |m: String| format!("toc {0}: {m} (see `toc {0} --help`)", cmd.name);
    let (mut pos, mut given) = (Vec::new(), Vec::<(&Flag, &str)>::new());
    let mut it = argv.iter().map(String::as_str);
    while let Some(tok) = it.next() {
        if tok == "-h" || tok == "--help" {
            return Ok(None);
        }
        if !tok.starts_with("--") {
            pos.push(tok);
            continue;
        }
        let Some(flag) = cmd.flags().find(|f| f.name == tok) else {
            return Err(fail(format!("unknown flag {tok}")));
        };
        if given.iter().any(|(f, _)| f.name == tok) {
            return Err(fail(format!("{tok} given more than once")));
        }
        let value = match flag.metavar {
            "" => "",
            _ => match it.next() {
                Some(v) if !v.starts_with("--") => v,
                _ => return Err(fail(format!("{tok} needs a value: {flag}"))),
            },
        };
        given.push((flag, value));
    }
    if pos.len() != cmd.positionals.len() {
        let (n, want) = (cmd.positionals.len(), cmd.positionals.join(" "));
        let got = pos.len();
        return Err(fail(format!(
            "expected {n} positional argument(s) {want}, got {got}"
        )));
    }
    Ok(Some(Args { pos, given }))
}

impl<'a> Args<'a> {
    /// The `i`-th positional ([`parse`] checked the count).
    pub fn pos(&self, i: usize) -> &'a str {
        self.pos[i]
    }

    /// The raw value of `flag` when it was given (`""` for a boolean). A
    /// flag the command does not declare is never present.
    pub fn raw(&self, flag: &Flag) -> Option<&'a str> {
        let hit = self.given.iter().find(|(f, _)| f.name == flag.name);
        hit.map(|(_, v)| *v)
    }

    pub fn has(&self, flag: &Flag) -> bool {
        self.raw(flag).is_some()
    }

    /// `flag`'s comma-separated values (one, for a scalar) as any
    /// `FromStr` type: numbers and engine names. A value that
    /// does not parse is an error naming the flag, never a silent default.
    pub fn list<T: FromStr<Err: Display>>(&self, flag: &Flag) -> Result<Option<Vec<T>>, String> {
        let parse = |t: &str| t.trim().parse().map_err(|e| format!("{}: {e}", flag.name));
        let values = self.raw(flag).map(|s| s.split(',').map(parse).collect());
        values.transpose()
    }

    /// `flag`'s single value, `None` when absent.
    pub fn value<T: FromStr<Err: Display>>(&self, flag: &Flag) -> Result<Option<T>, String> {
        let parse = |s: &str| s.parse().map_err(|e| format!("{}: {e}", flag.name));
        self.raw(flag).map(parse).transpose()
    }

    /// [`Self::value`] with a default for an absent flag.
    pub fn get<T: FromStr<Err: Display>>(&self, flag: &Flag, default: T) -> Result<T, String> {
        Ok(self.value(flag)?.unwrap_or(default))
    }

    /// [`Self::get`] for counts and durations that must be `>= 1`.
    pub fn at_least_one<T>(&self, flag: &Flag, default: T) -> Result<T, String>
    where
        T: FromStr<Err: Display> + Default + PartialEq,
    {
        match self.get(flag, default)? {
            v if v == T::default() => Err(format!("{} must be >= 1", flag.name)),
            v => Ok(v),
        }
    }
}
