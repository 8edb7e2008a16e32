//! The one reader for axis-value parameters.
//!
//! Every axis value that carries parameters (a workload, a checkpoint
//! policy, a failure model, the policy tail of a protocol) is a head
//! followed by `:`-separated segments. [`Params::read`] takes those
//! segments strictly: each one is a `key=value` with a known key or a
//! known bare flag, at most once; an empty, repeated, unknown or
//! malformed segment is an error, never noise. Integers are ASCII digits
//! only ([`digits`]), so `+5` or ` 5` never alias `5`, and the
//! [`ms`]/[`us`] readers refuse any time whose picosecond value would
//! not fit the simulator's `u64` clock.

use std::str::FromStr;

/// Largest millisecond count whose picosecond value fits in `u64`.
pub const MAX_MS: u64 = u64::MAX / 1_000_000_000;

/// Largest microsecond count whose picosecond value fits in `u64`.
pub const MAX_US: u64 = u64::MAX / 1_000_000;

/// Strict unsigned decimal: ASCII digits only. Rejects the leading `+`,
/// whitespace and empty strings that `u64::from_str` would otherwise
/// accept, so parsed names stay canonical.
pub fn digits<T: FromStr>(s: &str) -> Option<T> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

/// `value` as an unsigned integer, or an error naming `key` in `whole`.
pub fn uint<T: FromStr>(key: &str, value: &str, whole: &str) -> Result<T, String> {
    digits(value).ok_or_else(|| format!("bad value `{value}` for `{key}` in `{whole}`"))
}

/// Milliseconds whose picosecond value fits in `u64`.
pub fn ms(key: &str, value: &str, whole: &str) -> Result<u64, String> {
    at_most(MAX_MS, key, value, whole)
}

/// Microseconds whose picosecond value fits in `u64`.
pub fn us(key: &str, value: &str, whole: &str) -> Result<u64, String> {
    at_most(MAX_US, key, value, whole)
}

fn at_most(max: u64, key: &str, value: &str, whole: &str) -> Result<u64, String> {
    match uint(key, value, whole)? {
        v if v > max => Err(format!(
            "`{key}={v}` in `{whole}` overflows simulated time (at most {max})"
        )),
        v => Ok(v),
    }
}

/// A decimal number as `f64::from_str` reads it, minus the leading `+`
/// that no canonical name carries. Range checks are the caller's.
pub fn float(key: &str, value: &str, whole: &str) -> Result<f64, String> {
    let v = value.parse().ok().filter(|_| !value.starts_with('+'));
    v.ok_or_else(|| format!("bad value `{value}` for `{key}` in `{whole}`"))
}

/// The parameter segments of one axis value, read strictly: `key=value`
/// pairs and bare flags (a flag's value is `None`).
#[derive(Debug)]
pub struct Params<'a> {
    whole: &'a str,
    given: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Params<'a> {
    /// Read `segments` of the axis value `whole`. Each segment must be
    /// `key=value` with a key from `keys`, or a bare word from `flags`,
    /// and may appear once.
    pub fn read(
        whole: &'a str,
        segments: impl IntoIterator<Item = &'a str>,
        keys: &[&str],
        flags: &[&str],
    ) -> Result<Params<'a>, String> {
        let mut given: Vec<(&str, Option<&str>)> = Vec::new();
        for seg in segments {
            if seg.is_empty() {
                return Err(format!(
                    "empty parameter segment in `{whole}` (stray or trailing `:`)"
                ));
            }
            let (key, value) = match seg.split_once('=') {
                Some((key, value)) => (key, Some(value)),
                None => (seg, None),
            };
            if !(if value.is_some() { keys } else { flags }).contains(&key) {
                let want: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{k}=<n>"))
                    .chain(flags.iter().map(|f| f.to_string()))
                    .collect();
                return Err(format!(
                    "unknown parameter `{key}` in `{whole}` (want {})",
                    want.join(" | ")
                ));
            }
            if given.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate `{key}` in `{whole}`"));
            }
            given.push((key, value));
        }
        Ok(Params { whole, given })
    }

    /// Whether the bare flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.given.contains(&(name, None))
    }

    /// The value of `key` through `read` (one of [`uint`], [`ms`],
    /// [`us`] and [`float`]), if given.
    pub fn get<T>(
        &self,
        key: &str,
        read: fn(&str, &str, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let value = self
            .given
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| *v);
        value.map(|v| read(key, v, self.whole)).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read<'a>(whole: &'a str) -> Result<Params<'a>, String> {
        Params::read(whole, whole.split(':').skip(1), &["a", "b"], &["f"])
    }

    #[test]
    fn reads_keys_and_flags_in_any_order() {
        let p = read("x:b=2:f:a=1").unwrap();
        assert_eq!(p.get("a", uint::<u64>).unwrap(), Some(1));
        assert_eq!(p.get("b", uint::<u64>).unwrap(), Some(2));
        assert!(p.flag("f"));
        let p = read("x").unwrap();
        assert_eq!(p.get("a", uint::<u64>).unwrap(), None);
        assert!(!p.flag("f"));
    }

    #[test]
    fn rejects_empty_duplicate_unknown_and_malformed_segments() {
        for (bad, needle) in [
            ("x:", "empty"),
            ("x::a=1", "empty"),
            ("x:a=1:a=1", "duplicate `a`"),
            ("x:f:f", "duplicate `f`"),
            ("x:c=1", "unknown parameter `c`"),
            ("x:zzz", "unknown parameter `zzz`"),
            ("x:f=1", "unknown parameter `f`"),
        ] {
            let err = read(bad).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
        }
        let err = read("x:a=+1").unwrap().get("a", uint::<u64>).unwrap_err();
        assert!(err.contains("`a`"), "{err}");
    }

    #[test]
    fn time_readers_reject_picosecond_overflow() {
        assert_eq!(ms("t", &MAX_MS.to_string(), "w"), Ok(MAX_MS));
        assert!(ms("t", &(MAX_MS + 1).to_string(), "w")
            .unwrap_err()
            .contains("`t="));
        assert_eq!(us("t", &MAX_US.to_string(), "w"), Ok(MAX_US));
        assert!(us("t", &(MAX_US + 1).to_string(), "w").is_err());
        assert!(us("t", "18446744073709551616", "w").is_err());
    }

    #[test]
    fn float_rejects_a_leading_plus() {
        assert_eq!(float("s", "0.5", "w"), Ok(0.5));
        assert_eq!(float("s", "1e-9", "w"), Ok(1e-9));
        assert!(float("s", "+0.5", "w").is_err());
        assert!(float("s", " 0.5", "w").is_err());
    }
}
