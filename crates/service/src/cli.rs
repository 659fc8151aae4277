//! The command line: one strict flag parser, and the daemon's entry point.
//!
//! [`Args`] parses every `papctl` command and `papd` itself against a
//! [`Spec`] of what the command takes. A flag the command does not take, a
//! value flag without its value, a repeated flag or a surplus positional is
//! an error at parse time; a value that does not parse is an error when the
//! command reads it, which every command does before it starts work. Each
//! error names the offending argument. Nothing falls back to a default
//! silently, so a run reports the parameters it actually ran with.
//!
//! `papd`, `papctl serve` and `papctl fleet serve` share the serve flags
//! ([`serve_spec`]) and [`serve_config`]; `papd` and `papctl serve` then
//! run the same [`run_daemon`].

use std::fmt::Display;
use std::io::Write;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

use crate::server::{install_signal_shutdown, ServeConfig, Server};

/// What one command accepts.
#[derive(Debug)]
pub struct Spec {
    positionals: &'static [&'static str],
    values: Vec<&'static str>,
    switches: Vec<&'static str>,
}

impl Spec {
    /// A command taking these positionals, in order, and no flags yet. A
    /// last name ending in `...` takes any number of arguments.
    pub fn new(positionals: &'static [&'static str]) -> Spec {
        Spec { positionals, values: Vec::new(), switches: Vec::new() }
    }

    /// Add flags that take a value (`--name VALUE`).
    pub fn values(mut self, names: &[&'static str]) -> Spec {
        self.values.extend_from_slice(names);
        self
    }

    /// Add flags that take no value (`--name`).
    pub fn switches(mut self, names: &[&'static str]) -> Spec {
        self.switches.extend_from_slice(names);
        self
    }

    fn variadic(&self) -> bool {
        self.positionals.last().is_some_and(|p| p.ends_with("..."))
    }

    fn accepted(&self) -> String {
        let flags: Vec<String> =
            self.values.iter().chain(&self.switches).map(|n| format!("--{n}")).collect();
        if flags.is_empty() {
            "it takes no flags".to_string()
        } else {
            format!("it takes {}", flags.join(", "))
        }
    }
}

/// A command line parsed against its [`Spec`].
#[derive(Debug)]
pub struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
    names: &'static [&'static str],
}

impl Args {
    /// Parse `raw` (without the program and command names) strictly.
    pub fn parse(raw: Vec<String>, spec: &Spec) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags: Vec<(String, Option<String>)> = Vec::new();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                positional.push(a);
                continue;
            };
            let value = if spec.values.contains(&name) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => return Err(format!("--{name} needs a value")),
                }
            } else if spec.switches.contains(&name) {
                None
            } else {
                return Err(format!("unknown flag '--{name}' ({})", spec.accepted()));
            };
            if flags.iter().any(|(n, _)| n == name) {
                return Err(format!("--{name} given twice"));
            }
            flags.push((name.to_string(), value));
        }
        if !spec.variadic() {
            if let Some(extra) = positional.get(spec.positionals.len()) {
                return Err(format!("unexpected argument '{extra}'"));
            }
        }
        Ok(Args { positional, flags, names: spec.positionals })
    }

    /// Every positional argument, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positional
    }

    /// Positional `i`, or an error naming the missing parameter.
    pub fn pos(&self, i: usize) -> Result<&str, String> {
        self.positional.get(i).map(String::as_str).ok_or_else(|| format!("missing <{}>", self.name(i)))
    }

    fn name(&self, i: usize) -> &str {
        self.names.get(i).map_or("argument", |n| n.trim_end_matches("..."))
    }

    /// Positional `i`, parsed.
    pub fn arg<T: FromStr>(&self, i: usize) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v = self.pos(i)?;
        v.parse().map_err(|e| format!("<{}>: bad value '{v}' ({e})", self.name(i)))
    }

    /// The value of `--name` parsed, if the flag was given.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.opt(name)
            .map(|v| v.parse().map_err(|e| format!("--{name}: bad value '{v}' ({e})")))
            .transpose()
    }

    /// The value of `--name` parsed, or `default` when the flag is absent.
    pub fn flag<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.value(name)?.unwrap_or(default))
    }

    /// The raw value of `--name`, if given.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    /// Whether `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

/// The serve flags: what `papd` takes.
pub fn serve_spec() -> Spec {
    Spec::new(&[])
        .values(&[
            "addr", "snapshot", "backend", "threads", "machine", "ranks", "policy", "l1",
            "refine-threads",
        ])
        .switches(&["no-tune"])
}

/// Turn the serve flags into a [`ServeConfig`].
pub fn serve_config(args: &Args) -> Result<ServeConfig, String> {
    let d = ServeConfig::default();
    Ok(ServeConfig {
        addr: args.flag("addr", d.addr)?,
        snapshot: args.opt("snapshot").map(PathBuf::from),
        backend: args.flag("backend", d.backend)?,
        machine: args.flag("machine", d.machine)?,
        ranks: args.flag("ranks", d.ranks)?,
        threads: args.flag("threads", d.threads)?,
        refine_threads: args.flag("refine-threads", d.refine_threads)?,
        l1_capacity: args.flag("l1", d.l1_capacity)?,
        default_policy: args.flag("policy", d.default_policy)?,
        tune_at_startup: !args.has("no-tune"),
    })
}

/// Run one daemon until it shuts down: start it, drain on SIGTERM/SIGINT
/// exactly as on a `Shutdown` frame, print `papd listening on <addr>`,
/// join, and print the stats table to stderr.
pub fn run_daemon(cfg: ServeConfig) -> Result<(), String> {
    let server = Server::start(cfg)?;
    install_signal_shutdown(&server)?;
    // Scripted callers read the resolved port from this line, so flush
    // past stdout's pipe buffering before blocking.
    println!("papd listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    let stats = Arc::clone(server.stats());
    server.join();
    eprint!("papd: shut down\n{}", stats.report().render_table());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        let spec = Spec::new(&["machine"]).values(&["ranks"]).switches(&["json"]);
        Args::parse(v.iter().map(|s| s.to_string()).collect(), &spec)
    }

    #[test]
    fn rejects_what_the_spec_does_not_take() {
        let e = parse(&["hydra", "--rnaks", "32"]).unwrap_err();
        assert!(e.contains("--rnaks") && e.contains("--ranks"), "{e}");
        assert!(parse(&["hydra", "extra"]).unwrap_err().contains("'extra'"));
        assert!(parse(&["hydra", "--ranks"]).unwrap_err().contains("--ranks needs a value"));
        assert!(parse(&["--ranks", "--json"]).unwrap_err().contains("--ranks needs a value"));
        assert!(parse(&["--json", "--json"]).unwrap_err().contains("twice"));
        // A switch never swallows the next token.
        assert!(parse(&["--json", "hydra"]).unwrap().has("json"));
    }

    #[test]
    fn bad_values_name_their_flag_or_parameter() {
        let a = parse(&["hydra", "--ranks", "12x"]).unwrap();
        let e = a.flag("ranks", 64usize).unwrap_err();
        assert!(e.contains("--ranks") && e.contains("12x"), "{e}");
        assert!(a.arg::<u64>(0).unwrap_err().contains("<machine>"));
        assert_eq!(parse(&[]).unwrap().pos(0).unwrap_err(), "missing <machine>");
        assert_eq!(parse(&[]).unwrap().flag("ranks", 64usize), Ok(64));
        let variadic = Args::parse(vec!["a".into(), "b".into()], &Spec::new(&["kind..."])).unwrap();
        assert_eq!(variadic.positionals(), ["a", "b"]);
    }

    #[test]
    fn serve_flags_build_the_config() {
        let raw = ["--ranks", "256", "--backend", "model", "--refine-threads", "0", "--no-tune"];
        let a = Args::parse(raw.iter().map(|s| s.to_string()).collect(), &serve_spec()).unwrap();
        let cfg = serve_config(&a).unwrap();
        assert_eq!((cfg.ranks, cfg.refine_threads, cfg.tune_at_startup), (256, 0, false));
        assert_eq!(cfg.addr, ServeConfig::default().addr);
        let bad = Args::parse(vec!["--backend".into(), "magic".into()], &serve_spec()).unwrap();
        assert!(serve_config(&bad).unwrap_err().contains("--backend"));
    }
}
