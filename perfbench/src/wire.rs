//! Field extraction from the server's flat JSON answers and from the
//! `fam solve` report text.

/// The raw text of the first `"key":<value>` in a JSON body (a number,
/// `true`/`false`, or an array of numbers).
fn raw<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &body[body.find(&tag)? + tag.len()..];
    let end = if rest.starts_with('[') { rest.find(']')? + 1 } else { rest.find([',', '}'])? };
    Some(rest[..end].trim())
}

/// A numeric field.
pub fn num(body: &str, key: &str) -> Option<f64> {
    raw(body, key)?.parse().ok()
}

/// A boolean field.
pub fn flag(body: &str, key: &str) -> Option<bool> {
    raw(body, key)?.parse().ok()
}

/// An array-of-indices field.
pub fn indices(body: &str, key: &str) -> Option<Vec<usize>> {
    list(raw(body, key)?)
}

/// Parses `[1, 2, 3]` (with or without spaces).
fn list(text: &str) -> Option<Vec<usize>> {
    let inner = text.trim().strip_prefix('[')?.strip_suffix(']')?;
    inner.split(',').filter(|s| !s.trim().is_empty()).map(|s| s.trim().parse().ok()).collect()
}

/// The selection and the fresh-sample `arr` (as printed, six decimals)
/// of a `fam solve` report.
pub fn cli_report(text: &str) -> Option<(Vec<usize>, String)> {
    let mut selection = None;
    let mut arr = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("selected (") {
            selection = list(rest.split_once(": ")?.1);
        } else if let Some(rest) = line.strip_prefix("arr = ") {
            arr = Some(rest.split(',').next()?.trim().to_string());
        }
    }
    Some((selection?, arr?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_fields_without_prefix_collisions() {
        let body = "{\"resident_selection\":[4,5],\"selection\":[1, 2],\"resident_arr\":0.5,\
                    \"arr\":0.25,\"cached\":true,\"micros\":17}";
        assert_eq!(indices(body, "selection"), Some(vec![1, 2]));
        assert_eq!(indices(body, "resident_selection"), Some(vec![4, 5]));
        assert_eq!(num(body, "arr"), Some(0.25));
        assert_eq!(flag(body, "cached"), Some(true));
        assert_eq!(num(body, "micros"), Some(17.0));
        assert_eq!(num(body, "missing"), None);
    }

    #[test]
    fn reads_the_cli_report() {
        let text = "algorithm: x\nselected (2): [3, 9]\narr = 0.012345, rr std-dev = 0.1\n";
        assert_eq!(cli_report(text), Some((vec![3, 9], "0.012345".to_string())));
        assert_eq!(cli_report("selected (2): [3, 9]\n"), None);
    }
}
