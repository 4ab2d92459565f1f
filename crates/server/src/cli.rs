//! Command-line flag helpers shared by the `vdx-server` and `vdx-workload`
//! binaries: both refuse a flag their usage line does not name, a value
//! flag with no value, and a value that does not parse, naming the flag.

use std::str::FromStr;

/// The raw value following flag `name`, if the flag is present.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The parsed value of flag `name`, or `None` when the flag is absent.
pub fn optional_flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|value| {
            value
                .parse()
                .map_err(|_| format!("{name}: cannot parse `{value}`"))
        })
        .transpose()
}

/// The parsed value of flag `name`, or `default` when the flag is absent.
pub fn parsed_flag<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    Ok(optional_flag(args, name)?.unwrap_or(default))
}

/// Check `args` against a usage line: every argument must be a flag the
/// line names, and a flag shown with a value placeholder (`--dir DIR`,
/// `[--addr A]`) must be followed by a value.
pub fn check_args(usage: &str, args: &[String]) -> Result<(), String> {
    let tokens: Vec<&str> = usage
        .split_whitespace()
        .map(|t| t.trim_start_matches('['))
        .collect();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let at = tokens
            .iter()
            .position(|t| arg.starts_with("--") && t.trim_end_matches(']') == arg)
            .ok_or_else(|| format!("unknown argument `{arg}` (usage: {usage})"))?;
        let takes_value =
            !tokens[at].ends_with(']') && tokens.get(at + 1).is_some_and(|t| !t.starts_with("--"));
        if takes_value && rest.next().is_none() {
            return Err(format!("{arg} needs a value (usage: {usage})"));
        }
    }
    Ok(())
}
