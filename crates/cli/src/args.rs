//! Minimal hand-rolled argument parsing (no external dependency), and
//! the readers the commands share: the parameter overrides, `--config`
//! and `--workers`. Which options and positionals each command takes
//! is declared in [`crate::commands`]' table.

use std::collections::HashMap;

use nsr_core::config::Configuration;
use nsr_core::params::{Duplex, Params};
use nsr_core::units::{Bytes, Gbps, Hours};

use crate::{CliError, Result};

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` pairs (keys without the leading dashes).
    pub options: HashMap<String, String>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
    /// Extra positional arguments, only populated for the commands whose
    /// table row takes them.
    pub positionals: Vec<String>,
}

impl ParsedArgs {
    /// Parses an argument list (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns an error when no subcommand is present, an option is
    /// missing its value, or a positional argument appears after a
    /// command that takes none.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<ParsedArgs> {
        let mut iter = args.into_iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| CliError("missing subcommand; try `nsr help`".into()))?;
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                if crate::commands::takes_positionals(&command) {
                    positionals.push(arg);
                    continue;
                }
                return Err(CliError(format!("unexpected positional argument '{arg}'")));
            };
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    options.insert(key.to_string(), iter.next().expect("peeked"));
                }
                _ => flags.push(key.to_string()),
            }
        }
        Ok(ParsedArgs {
            command,
            options,
            flags,
            positionals,
        })
    }

    /// Looks up an option, parsed as `T`.
    ///
    /// # Errors
    ///
    /// Returns an error if present but unparseable.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>> {
        match self.options.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| CliError(format!("cannot parse --{key} value '{v}'"))),
        }
    }

    /// Looks up an option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if present but unparseable.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// Whether a bare flag was passed.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// The `--config` option as a [`Configuration`] (its code, e.g.
/// `ft2-ir5`), or `default` when the option is absent.
///
/// # Errors
///
/// Returns an error for a malformed name, or when the option is absent
/// and there is no default.
pub fn config_from(args: &ParsedArgs, default: Option<&str>) -> Result<Configuration> {
    args.get::<String>("config")?
        .or_else(|| default.map(String::from))
        .ok_or_else(|| CliError("--config is required".into()))?
        .parse()
        .map_err(CliError)
}

/// The `--workers` option: a count of at least 1, or `auto` (0, which
/// the core layer resolves per run). Defaults to 1.
///
/// # Errors
///
/// Returns an error for anything but a positive count or `auto`.
pub fn workers_from(args: &ParsedArgs) -> Result<usize> {
    let raw = args.get_or("workers", String::from("1"))?;
    if raw == "auto" {
        // 0 is the core-layer sentinel: nsr_core::sweep::sweep resolves it
        // per sweep via nsr_core::sweep::auto_workers (cores vs rows).
        return Ok(0);
    }
    let workers: usize = raw
        .parse()
        .map_err(|_| CliError(format!("--workers must be a count or `auto` (got {raw})")))?;
    if workers == 0 {
        return Err(CliError("--workers must be at least 1 (or `auto`)".into()));
    }
    Ok(workers)
}

/// The parameter-override options and flag [`params_from`] reads,
/// space-separated.
pub const PARAM_OPTIONS: &str = "drive-mttf node-mttf nodes rset drives link-gbps \
    rebuild-kib restripe-kib capacity-util bw-util her drive-gb half-duplex";

/// Applies the shared parameter-override options to a baseline parameter
/// set. Recognized options ([`PARAM_OPTIONS`]):
///
/// `--drive-mttf H`, `--node-mttf H`, `--nodes N`, `--rset R`,
/// `--drives D`, `--link-gbps G`, `--rebuild-kib K`, `--restripe-kib K`,
/// `--capacity-util F`, `--bw-util F`, `--her E` (errors per bit),
/// `--drive-gb G`, `--half-duplex` (flag).
///
/// # Errors
///
/// Returns parse or validation errors.
pub fn params_from(args: &ParsedArgs) -> Result<Params> {
    let mut p = Params::baseline();
    if let Some(v) = args.get::<f64>("drive-mttf")? {
        p.drive.mttf = Hours(v);
    }
    if let Some(v) = args.get::<f64>("node-mttf")? {
        p.node.mttf = Hours(v);
    }
    if let Some(v) = args.get::<u32>("nodes")? {
        p.system.node_count = v;
    }
    if let Some(v) = args.get::<u32>("rset")? {
        p.system.redundancy_set_size = v;
    }
    if let Some(v) = args.get::<u32>("drives")? {
        p.node.drives_per_node = v;
    }
    if let Some(v) = args.get::<f64>("link-gbps")? {
        p.system.link_speed = Gbps(v);
    }
    if let Some(v) = args.get::<f64>("rebuild-kib")? {
        p.system.rebuild_command = Bytes::from_kib(v);
    }
    if let Some(v) = args.get::<f64>("restripe-kib")? {
        p.system.restripe_command = Bytes::from_kib(v);
    }
    if let Some(v) = args.get::<f64>("capacity-util")? {
        p.system.capacity_utilization = v;
    }
    if let Some(v) = args.get::<f64>("bw-util")? {
        p.system.rebuild_bw_utilization = v;
    }
    if let Some(v) = args.get::<f64>("her")? {
        p.drive.hard_error_rate_per_bit = v;
    }
    if let Some(v) = args.get::<f64>("drive-gb")? {
        p.drive.capacity = Bytes::from_gb(v);
    }
    if args.has_flag("half-duplex") {
        p.system.duplex = Duplex::Half;
    }
    p.validate()?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["sweep", "--figure", "16", "--csv"]);
        assert_eq!(a.command, "sweep");
        assert_eq!(a.get::<u32>("figure").unwrap(), Some(16));
        assert!(a.has_flag("csv"));
        assert!(!a.has_flag("json"));
    }

    #[test]
    fn missing_command_errors() {
        assert!(ParsedArgs::parse(Vec::<String>::new()).is_err());
    }

    #[test]
    fn positional_rejected() {
        assert!(ParsedArgs::parse(vec!["eval".into(), "oops".into()]).is_err());
    }

    #[test]
    fn bench_accepts_positionals() {
        let a = parse(&["bench", "--compare", "old.json", "new.json"]);
        assert_eq!(
            a.get::<String>("compare").unwrap().as_deref(),
            Some("old.json")
        );
        assert_eq!(a.positionals, vec!["new.json".to_string()]);
    }

    #[test]
    fn unparseable_option_errors() {
        let a = parse(&["eval", "--nodes", "lots"]);
        assert!(a.get::<u32>("nodes").is_err());
    }

    #[test]
    fn get_or_defaults() {
        let a = parse(&["sim"]);
        assert_eq!(a.get_or("samples", 100u64).unwrap(), 100);
    }

    #[test]
    fn config_names_roundtrip() {
        let config = |name: &str| config_from(&parse(&["eval", "--config", name]), None);
        for name in ["ft1-nir", "ft2-ir5", "ft3-ir6"] {
            assert_eq!(config(name).unwrap().code(), name);
        }
        assert_eq!(config("ft2-raid5").unwrap(), config("FT2-IR5").unwrap());
        assert_eq!(
            config("ft2").unwrap_err().0,
            "bad config 'ft2'; expected e.g. ft2-ir5"
        );
        assert!(config("ftx-ir5").is_err());
        assert!(config("ft2-zfs").is_err());
        assert!(config("ft0-nir").is_err());
        let none = parse(&["eval"]);
        assert_eq!(
            config_from(&none, None).unwrap_err().0,
            "--config is required"
        );
        assert_eq!(
            config_from(&none, Some("ft1-nir")).unwrap().code(),
            "ft1-nir"
        );
    }

    #[test]
    fn params_overrides_apply() {
        let a = parse(&[
            "eval",
            "--drive-mttf",
            "750000",
            "--nodes",
            "128",
            "--rebuild-kib",
            "64",
            "--half-duplex",
        ]);
        let p = params_from(&a).unwrap();
        assert_eq!(p.drive.mttf.0, 750000.0);
        assert_eq!(p.system.node_count, 128);
        assert_eq!(p.system.rebuild_command.0, 65536.0);
        assert_eq!(p.system.duplex, Duplex::Half);
    }

    #[test]
    fn every_param_option_is_read() {
        let values = [
            ("drive-mttf", "1000"),
            ("node-mttf", "1000"),
            ("nodes", "32"),
            ("rset", "6"),
            ("drives", "10"),
            ("link-gbps", "1"),
            ("rebuild-kib", "64"),
            ("restripe-kib", "64"),
            ("capacity-util", "0.5"),
            ("bw-util", "0.5"),
            ("her", "1e-15"),
            ("drive-gb", "100"),
            ("half-duplex", ""),
        ];
        assert_eq!(values.map(|(key, _)| key).join(" "), PARAM_OPTIONS);
        for (key, value) in values {
            let flag = format!("--{key}");
            let mut words = vec!["eval", &flag];
            if !value.is_empty() {
                words.push(value);
            }
            assert_ne!(
                params_from(&parse(&words)).unwrap(),
                Params::baseline(),
                "--{key}"
            );
        }
    }

    #[test]
    fn invalid_override_rejected_by_validation() {
        let a = parse(&["eval", "--capacity-util", "0"]);
        assert!(params_from(&a).is_err());
    }
}
