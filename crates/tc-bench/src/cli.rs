//! The one argument parser behind every `tc` subcommand.
//!
//! A subcommand takes exactly the options it asks for: it pulls its
//! flags and `--name value` options out of [`Args`] first, then its
//! dataset list, and [`Args::finish`] rejects whatever is left. Parse
//! errors are [`Error::Usage`] (the `tc` binary prints the command's
//! usage and exits 2); a failed verification or gate is
//! [`Error::Failed`] (exit 1).

use graph_data::{DatasetSpec, SizeClass, TABLE2_DATASETS};
use tc_algos::all_algorithms;
use tc_algos::api::TcAlgorithm;

/// Why a subcommand stopped.
#[derive(Debug, PartialEq, Eq)]
pub enum Error {
    /// Bad command-line input.
    Usage(String),
    /// The command ran, and a verification, gate or I/O step failed.
    Failed(String),
}

/// Parse errors from [`Args`] are usage errors, so `?` lifts them.
impl From<String> for Error {
    fn from(msg: String) -> Error {
        Error::Usage(msg)
    }
}

/// The command-line tokens a subcommand has not consumed yet.
#[derive(Debug)]
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    pub fn new(args: impl IntoIterator<Item = String>) -> Args {
        Args {
            rest: args.into_iter().collect(),
        }
    }

    /// Consume every occurrence of the boolean flag `name`.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() != before
    }

    /// Consume `name VALUE`. A `name` that is last, or followed by
    /// another `--` option, is missing its value.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        match self.rest.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                let v = self.rest.remove(i + 1);
                self.rest.remove(i);
                Ok(Some(v))
            }
            _ => Err(format!("`{name}` needs a value")),
        }
    }

    /// Consume the dataset selection: Table II names (case-insensitive),
    /// `--small` (the small class) or `--medium` (small + medium). With
    /// none of these, `default` is parsed the same way; an empty
    /// `default` selects all 19 datasets. Options are consumed before
    /// the datasets, so any `--` option still left is unknown (and the
    /// value after it is not taken for a dataset name); every other
    /// argument left is a dataset name, and naming one twice is an error.
    pub fn datasets(&mut self, default: &[&str]) -> Result<Vec<DatasetSpec>, String> {
        let small = self.flag("--small");
        let medium = self.flag("--medium");
        if let Some(a) = self.rest.iter().find(|a| a.starts_with("--")) {
            return Err(format!("unknown option `{a}`"));
        }
        let names = std::mem::take(&mut self.rest);
        let class = |keep: fn(SizeClass) -> bool| -> Vec<DatasetSpec> {
            TABLE2_DATASETS
                .iter()
                .filter(|d| keep(d.size_class))
                .copied()
                .collect()
        };
        match (small, medium, names.is_empty()) {
            (false, false, true) if default.is_empty() => Ok(TABLE2_DATASETS.to_vec()),
            (false, false, true) => Args::new(default.iter().map(|s| s.to_string())).datasets(&[]),
            (true, false, true) => Ok(class(|c| c == SizeClass::Small)),
            (false, true, true) => Ok(class(|c| c != SizeClass::Large)),
            (false, false, false) => {
                let mut picked: Vec<DatasetSpec> = Vec::with_capacity(names.len());
                for name in &names {
                    let spec = DatasetSpec::by_name(name)
                        .ok_or_else(|| format!("unknown dataset `{name}` (see Table II)"))?;
                    if picked.iter().any(|p| p.name == spec.name) {
                        return Err(format!("dataset `{}` is named twice", spec.name));
                    }
                    picked.push(*spec);
                }
                Ok(picked)
            }
            _ => Err("pass dataset names, `--small` or `--medium`, not a mix".to_string()),
        }
    }

    /// Consume a selection of exactly one dataset, parsed like
    /// [`Args::datasets`] with `default` as the single default name.
    pub fn dataset(&mut self, default: &str) -> Result<DatasetSpec, String> {
        match self.datasets(&[default])?[..] {
            [spec] => Ok(spec),
            ref many => Err(format!("takes one dataset, got {}", many.len())),
        }
    }

    /// Reject any argument no one asked for.
    pub fn finish(self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(a) if a.starts_with("--") => Err(format!("unknown option `{a}`")),
            Some(a) => Err(format!("unexpected argument `{a}`")),
        }
    }
}

/// The registered algorithms named in a comma-separated `list`
/// (case-insensitive), in registry order.
pub fn algorithms(list: &str) -> Result<Vec<Box<dyn TcAlgorithm>>, String> {
    let names: Vec<&str> = list.split(',').map(str::trim).collect();
    let mut algos = all_algorithms();
    if let Some(bad) = names
        .iter()
        .find(|n| !algos.iter().any(|a| a.name().eq_ignore_ascii_case(n)))
    {
        let known: Vec<&str> = algos.iter().map(|a| a.name()).collect();
        return Err(format!(
            "unknown algorithm `{bad}` (registered: {})",
            known.join(", ")
        ));
    }
    algos.retain(|a| names.iter().any(|n| n.eq_ignore_ascii_case(a.name())));
    Ok(algos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::new(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_args_select_all_19() {
        assert_eq!(args(&[]).datasets(&[]).unwrap().len(), 19);
    }

    #[test]
    fn class_filters() {
        let small = args(&["--small"]).datasets(&[]).unwrap();
        assert!(small.iter().all(|d| d.size_class == SizeClass::Small));
        assert_eq!(small.len(), 6);
        let medium = args(&["--medium"]).datasets(&[]).unwrap();
        assert_eq!(medium.len(), 16);
    }

    #[test]
    fn names_resolve_case_insensitively() {
        let ds = args(&["as-caida", "Twitter"]).datasets(&[]).unwrap();
        assert_eq!(ds.len(), 2);
        assert!(args(&["bogus"]).datasets(&[]).is_err());
    }

    #[test]
    fn a_repeated_name_is_an_error() {
        let err = args(&["As-Caida", "Twitter", "as-caida"]).datasets(&[]);
        assert_eq!(err.unwrap_err(), "dataset `As-Caida` is named twice");
        let err = args(&["Twitter", "Twitter"]).dataset("Wiki-Talk");
        assert_eq!(err.unwrap_err(), "dataset `Twitter` is named twice");
    }

    #[test]
    fn the_default_applies_only_when_no_dataset_is_named() {
        assert_eq!(args(&[]).datasets(&["--medium"]).unwrap().len(), 16);
        let ds = args(&["Twitter"]).datasets(&["--medium"]).unwrap();
        assert_eq!(ds[0].name, "Twitter");
        assert!(args(&["--small", "Twitter"]).datasets(&[]).is_err());
    }

    #[test]
    fn dataset_takes_exactly_one() {
        assert_eq!(args(&[]).dataset("Wiki-Talk").unwrap().name, "Wiki-Talk");
        assert_eq!(
            args(&["as-caida"]).dataset("Wiki-Talk").unwrap().name,
            "As-Caida"
        );
        let err = args(&["As-Caida", "Twitter"]).dataset("Wiki-Talk");
        assert_eq!(err.unwrap_err(), "takes one dataset, got 2");
        assert!(args(&["--small"]).dataset("Wiki-Talk").is_err());
        assert!(args(&["bogus"]).dataset("Wiki-Talk").is_err());
    }

    #[test]
    fn values_and_flags_are_consumed_wherever_they_stand() {
        let mut a = args(&["As-Caida", "--csv", "out.csv", "--serial"]);
        assert_eq!(a.value("--csv").unwrap().as_deref(), Some("out.csv"));
        assert!(a.flag("--serial"));
        assert!(!a.flag("--serial"));
        assert_eq!(a.datasets(&[]).unwrap()[0].name, "As-Caida");
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn a_missing_value_is_an_error() {
        assert!(args(&["--csv"]).value("--csv").is_err());
        assert!(args(&["--reps", "--serial"]).value("--reps").is_err());
        assert_eq!(args(&["--serial"]).value("--reps"), Ok(None));
    }

    #[test]
    fn an_unknown_option_is_not_read_as_a_dataset() {
        let err = args(&["--devices", "2"]).datasets(&["Wiki-Talk"]);
        assert_eq!(err.unwrap_err(), "unknown option `--devices`");
    }

    #[test]
    fn finish_rejects_leftovers() {
        let mut a = args(&["--bogus"]);
        assert_eq!(a.value("--csv"), Ok(None));
        assert!(a.finish().unwrap_err().contains("--bogus"));
        assert!(args(&["stray"]).finish().is_err());
    }

    #[test]
    fn unknown_algorithms_list_the_registry() {
        let picked = algorithms("trust, Polak").unwrap();
        let names: Vec<&str> = picked.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["Polak", "TRUST"]);
        let err = algorithms("Polak,nope").err().unwrap();
        assert!(err.contains("`nope`"), "{err}");
        assert!(
            err.contains("GroupTC") && err.contains("CoverEdge"),
            "{err}"
        );
    }
}
