//! Shared CLI-flag parsing for the harness binaries.
//!
//! Every harness speaks the same tiny dialect — `--flag value` or
//! `--flag=value`, last occurrence wins. A bare flag with no value is
//! always a usage error (exit 2), as is an unparsable number, with the
//! binary's own name prefixed to the message.

/// The invoking binary's file stem, for usage-error prefixes.
fn prog() -> String {
    std::env::args()
        .next()
        .as_deref()
        .map(std::path::Path::new)
        .and_then(|p| p.file_stem())
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "bench".to_string())
}

/// Parses `--<flag> <value>` (also `--<flag>=<value>`) from argv; the
/// last occurrence wins. A bare trailing flag exits with a usage error.
pub fn value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let mut value = None;
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&format!("--{flag}=")) {
            value = Some(v.to_string());
        } else if *a == format!("--{flag}") {
            value = Some(args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{}: --{flag} requires a value", prog());
                std::process::exit(2);
            }));
        }
    }
    value
}

/// [`value`] as an unsigned integer, falling back to `default` when the
/// flag is absent. A value that does not parse exits with a usage error.
pub fn u64_or(flag: &str, default: u64) -> u64 {
    match value(flag) {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("{}: --{flag} expects an unsigned integer, got {s:?}", prog());
            std::process::exit(2);
        }),
    }
}
