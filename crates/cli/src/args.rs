//! Minimal hand-rolled argument parsing (no external dependency).

use std::collections::HashMap;

use nsr_core::config::Configuration;
use nsr_core::params::{Duplex, Params};
use nsr_core::raid::InternalRaid;
use nsr_core::units::{Bytes, Gbps, Hours};

use crate::{CliError, Result};

/// Commands that accept extra positional arguments: `bench` (whose
/// `--compare <old.json> <new.json>` form supplies the second report
/// path positionally) and `explain` (which takes the configuration name
/// positionally). Every other command rejects positionals so typos fail
/// loudly.
const POSITIONAL_COMMANDS: &[&str] = &["bench", "explain"];

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` pairs (keys without the leading dashes).
    pub options: HashMap<String, String>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
    /// Extra positional arguments, only populated for
    /// [`POSITIONAL_COMMANDS`].
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
                if POSITIONAL_COMMANDS.contains(&command.as_str()) {
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

/// Parses a configuration name of the form `ft<k>-<nir|ir5|ir6>`
/// (e.g. `ft2-ir5`, `ft3-nir`).
///
/// # Errors
///
/// Returns an error for malformed names.
pub fn parse_config(name: &str) -> Result<Configuration> {
    let lower = name.to_ascii_lowercase();
    let (ft_part, raid_part) = lower
        .split_once('-')
        .ok_or_else(|| CliError(format!("bad config '{name}'; expected e.g. ft2-ir5")))?;
    let k: u32 = ft_part
        .strip_prefix("ft")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| CliError(format!("bad fault tolerance in '{name}'")))?;
    let internal = match raid_part {
        "nir" | "none" => InternalRaid::None,
        "ir5" | "raid5" => InternalRaid::Raid5,
        "ir6" | "raid6" => InternalRaid::Raid6,
        other => return Err(CliError(format!("unknown internal RAID '{other}'"))),
    };
    Configuration::new(internal, k).map_err(Into::into)
}

/// Canonical short name for a configuration (inverse of [`parse_config`]).
pub fn config_name(config: Configuration) -> String {
    let raid = match config.internal() {
        InternalRaid::None => "nir",
        InternalRaid::Raid5 => "ir5",
        InternalRaid::Raid6 => "ir6",
    };
    format!("ft{}-{raid}", config.node_fault_tolerance())
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
        for name in ["ft1-nir", "ft2-ir5", "ft3-ir6"] {
            let c = parse_config(name).unwrap();
            assert_eq!(config_name(c), name);
        }
        assert_eq!(
            parse_config("ft2-raid5").unwrap(),
            parse_config("FT2-IR5").unwrap()
        );
        assert!(parse_config("ft2").is_err());
        assert!(parse_config("ftx-ir5").is_err());
        assert!(parse_config("ft2-zfs").is_err());
        assert!(parse_config("ft0-nir").is_err());
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
