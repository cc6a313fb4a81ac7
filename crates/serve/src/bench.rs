//! Architecture labels shared by the bench harnesses: `router-bench`,
//! `video-bench`, `train-bench`, `infer-bench` and the repository
//! benchmark all name models as `m3`/`m5`/`m7`/`m11`/`xl`.

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
