//! Helpers shared by the bench harnesses: `router-bench`, `video-bench`,
//! `train-bench`, `infer-bench` and the repository benchmark all name
//! models as `m3`/`m5`/`m7`/`m11`/`xl`, and the four `sesr` lanes rebuild
//! their configuration from a report's `config` block through
//! [`ReportConfig`].

use crate::json::JsonValue;
use sesr_core::model::SesrConfig;

/// Maps an architecture label to its `SesrConfig`.
///
/// # Errors
///
/// Returns the unknown label.
pub fn arch_config(
    arch: &str,
    scale: usize,
    expanded: usize,
    seed: u64,
) -> Result<SesrConfig, String> {
    let base = match arch {
        "m3" => SesrConfig::m(3),
        "m5" => SesrConfig::m(5),
        "m7" => SesrConfig::m(7),
        "m11" => SesrConfig::m(11),
        "xl" => SesrConfig::xl(),
        other => return Err(format!("unknown arch {other:?} (expected m3|m5|m7|m11|xl)")),
    };
    Ok(base
        .with_scale(scale)
        .with_expanded(expanded)
        .with_seed(seed))
}

/// A bench report's recorded `config` block. A lane rebuilds its
/// configuration from it key by key (each getter fails on a missing key
/// or a value of the wrong kind), then [`ReportConfig::matches`] checks
/// that re-emitting that configuration reproduces the block, so a lane
/// re-runs exactly the recorded configuration or not at all.
#[derive(Debug)]
pub struct ReportConfig<'a>(&'a [(String, JsonValue)]);

impl<'a> ReportConfig<'a> {
    /// The `config` object of a parsed bench report.
    ///
    /// # Errors
    ///
    /// The report has no `config` object.
    pub fn of(report: &'a JsonValue) -> Result<Self, String> {
        match report.get(&["config"]) {
            Some(JsonValue::Object(members)) => Ok(Self(members)),
            _ => Err("report has no \"config\" object".to_string()),
        }
    }

    fn get(&self, key: &str) -> Result<&'a JsonValue, String> {
        let found = self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        found.ok_or_else(|| format!("config is missing {key:?}"))
    }

    /// A recorded number. Counts and seeds are read through this too: a
    /// fractional or negative one fails [`ReportConfig::matches`].
    pub fn num(&self, key: &str) -> Result<f64, String> {
        let v = self.get(key)?.as_f64();
        v.ok_or_else(|| format!("config {key:?} is not a number"))
    }

    /// A recorded string.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        let v = self.get(key)?.as_str();
        v.ok_or_else(|| format!("config {key:?} is not a string"))
    }

    /// A recorded boolean (anything else reads `false` and fails
    /// [`ReportConfig::matches`]).
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        Ok(*self.get(key)? == JsonValue::Bool(true))
    }

    /// A recorded array of strings.
    pub fn strs(&self, key: &str) -> Result<Vec<String>, String> {
        string_list(self.get(key)?).ok_or_else(|| format!("config {key:?} is not a string list"))
    }

    /// Checks that `emitted`, the rebuilt configuration's own `config`
    /// block, holds every recorded key with the recorded value.
    ///
    /// # Errors
    ///
    /// A recorded key the lane does not know, or a value it cannot
    /// reproduce.
    pub fn matches(&self, emitted: &str) -> Result<(), String> {
        let emitted = JsonValue::parse(emitted)?;
        for (key, recorded) in self.0 {
            match emitted.get(&[key]) {
                None => return Err(format!("config has unknown key {key:?}")),
                Some(v) if v != recorded => {
                    return Err(format!("config {key:?} = {recorded:?} reads back as {v:?}"))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// The top-level `archs` list of a train or infer report.
///
/// # Errors
///
/// The report has no `archs` array of strings.
pub fn report_archs(report: &JsonValue) -> Result<Vec<String>, String> {
    report
        .get(&["archs"])
        .and_then(string_list)
        .ok_or_else(|| "report has no \"archs\" string list".to_string())
}

fn string_list(v: &JsonValue) -> Option<Vec<String>> {
    let JsonValue::Array(items) = v else {
        return None;
    };
    items
        .iter()
        .map(|i| i.as_str().map(str::to_string))
        .collect()
}
