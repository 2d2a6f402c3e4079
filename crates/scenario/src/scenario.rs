//! The scenario schema: everything `default.yml` configures.

use crate::yaml::{ParseYamlError, Yaml};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Where faults are injected (§IV-B: "Faults can be inserted in weights
/// or neurons"; the two cannot be mixed in one run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionTarget {
    /// Corrupt layer outputs at inference time (via forward hooks).
    Neurons,
    /// Corrupt layer parameters before/during the run.
    Weights,
}

impl fmt::Display for InjectionTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InjectionTarget::Neurons => "neurons",
            InjectionTarget::Weights => "weights",
        })
    }
}

/// How often the active fault set changes (§IV-B: "per image, batch, or
/// epoch").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionPolicy {
    /// A fresh fault set for every image.
    PerImage,
    /// A fresh fault set for every batch.
    PerBatch,
    /// One fault set for a whole pass over the dataset.
    PerEpoch,
}

impl fmt::Display for InjectionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InjectionPolicy::PerImage => "per_image",
            InjectionPolicy::PerBatch => "per_batch",
            InjectionPolicy::PerEpoch => "per_epoch",
        })
    }
}

/// Transient faults are reverted after their scope ends; permanent faults
/// (e.g. stuck-at defects) persist for the remainder of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDuration {
    /// Reverted when the fault's scope (image/batch/epoch) ends.
    Transient,
    /// Sticks for the rest of the run.
    Permanent,
}

impl fmt::Display for FaultDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultDuration::Transient => "transient",
            FaultDuration::Permanent => "permanent",
        })
    }
}

/// The value-corruption model (§IV-B: "Modifications can be made to
/// either numbers or specific bits").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultMode {
    /// Flip one bit drawn uniformly from the inclusive position range
    /// (`rnd_bit_range: [0, 31]` in the paper's notation).
    BitFlip {
        /// Inclusive (low, high) bit-position range.
        bit_range: (u8, u8),
    },
    /// Force a bit in the range to a fixed value (permanent stuck-at).
    StuckAt {
        /// Inclusive (low, high) bit-position range.
        bit_range: (u8, u8),
        /// `true` for stuck-at-1, `false` for stuck-at-0.
        stuck_high: bool,
    },
    /// Replace the value with a uniform draw from `[min, max]`.
    RandomValue {
        /// Lower bound of the replacement value.
        min: f32,
        /// Upper bound of the replacement value.
        max: f32,
    },
    /// Flip one bit of the value's symmetric signed `bits`-wide integer
    /// quantization (MRFI-style quantized-int perturbation): quantize
    /// with scale `amax / (2^(bits-1) - 1)`, flip a bit drawn uniformly
    /// from `bit_range`, dequantize.
    QuantStep {
        /// Quantization width in bits, `2 ..= 16`.
        bits: u8,
        /// Absolute-maximum of the symmetric quantization range (> 0).
        amax: f32,
        /// Inclusive (low, high) bit-position range within the
        /// `bits`-wide integer (`bits - 1` is the sign bit).
        bit_range: (u8, u8),
    },
}

impl FaultMode {
    /// Convenience constructor for the paper's headline fault model:
    /// single bit flips restricted to the f32 exponent bits (23–30).
    pub fn exponent_bit_flip() -> FaultMode {
        FaultMode::BitFlip { bit_range: (23, 30) }
    }

    /// Bit flips across the whole 32-bit word.
    pub fn any_bit_flip() -> FaultMode {
        FaultMode::BitFlip { bit_range: (0, 31) }
    }
}

/// A per-layer override of the campaign-wide fault model — one entry of
/// the scenario's `layers:` map (MRFI-style multi-resolution
/// configuration). Every field is optional; unset fields fall back to
/// the campaign-wide setting.
///
/// The map key is a *layer pattern* matched against the resolved
/// injectable-layer list: an exact layer name (`features.3`), a layer
/// index (`4`), an inclusive index range (`2-5`) or a name prefix glob
/// (`features*`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerOverride {
    /// Relative injection rate for the matched layers, in `[0, 1]`.
    /// Overridden rates are renormalized deterministically against the
    /// base (Eq. 1 or uniform) weights of the remaining layers.
    pub rate: Option<f64>,
    /// Fault mode replacing the campaign-wide `fault_mode` for faults
    /// landing in the matched layers.
    pub mode: Option<FaultMode>,
    /// Inclusive (low, high) output-channel scope: faults in the
    /// matched layers only hit channels within this range.
    pub channel_range: Option<(usize, usize)>,
}

impl LayerOverride {
    /// Whether the override changes anything at all.
    pub fn is_empty(&self) -> bool {
        self.rate.is_none() && self.mode.is_none() && self.channel_range.is_none()
    }
}

/// Layer-type filter for fault locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerType {
    /// 2-D convolutions.
    Conv2d,
    /// 3-D convolutions.
    Conv3d,
    /// Fully-connected layers.
    Linear,
}

impl fmt::Display for LayerType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LayerType::Conv2d => "conv2d",
            LayerType::Conv3d => "conv3d",
            LayerType::Linear => "linear",
        })
    }
}

/// Number of simultaneous faults per image: a fixed count or a fraction
/// of the model's total weights/neurons (§IV-B: "a fixed integer or a
/// distribution ... a fraction of the total number").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultCount {
    /// Exactly this many faults per image.
    Fixed(usize),
    /// `fraction * total_elements` faults per image (at least 1).
    Fraction(f64),
}

impl FaultCount {
    /// Resolves the count against the model's total element count.
    pub fn resolve(&self, total_elements: usize) -> usize {
        match self {
            FaultCount::Fixed(n) => *n,
            FaultCount::Fraction(f) => ((total_elements as f64 * f).round() as usize).max(1),
        }
    }
}

/// On-disk format for campaign outcome rows.
///
/// `Csv` emits the paper's classic `results_*.csv` set; `Binary` writes
/// a single columnar `rows.alfic` store (smaller, checksummed, and
/// replay-indexed by fault id) that converts back to the exact CSV
/// bytes on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArtifactFormat {
    /// Plain-text CSV result tables (the default).
    #[default]
    Csv,
    /// Columnar binary result store (`rows.alfic`).
    Binary,
}

impl fmt::Display for ArtifactFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArtifactFormat::Csv => "csv",
            ArtifactFormat::Binary => "binary",
        })
    }
}

impl std::str::FromStr for ArtifactFormat {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "csv" => Ok(ArtifactFormat::Csv),
            "binary" => Ok(ArtifactFormat::Binary),
            _ => Err(invalid("format", "expected `csv` or `binary`")),
        }
    }
}

/// Which population a [`StopPolicy`] tracks when deciding to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopScope {
    /// One confidence interval over the whole campaign; reaching the
    /// target half-width ends the run.
    Campaign,
    /// One interval per injected layer; a layer whose interval is tight
    /// enough is *retired* (its remaining faults are skipped) while the
    /// other strata keep sampling.
    PerLayer,
}

impl fmt::Display for StopScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StopScope::Campaign => "campaign",
            StopScope::PerLayer => "per_layer",
        })
    }
}

/// Which binomial confidence interval a [`StopPolicy`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CiMethod {
    /// Wilson score interval (cheap, good mid-range coverage).
    Wilson,
    /// Clopper-Pearson exact interval (conservative, never undercovers —
    /// preferred for the near-zero rates FI campaigns observe).
    ClopperPearson,
}

impl fmt::Display for CiMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CiMethod::Wilson => "wilson",
            CiMethod::ClopperPearson => "clopper_pearson",
        })
    }
}

/// Statistical early-stop configuration for adaptive campaigns.
///
/// The engine evaluates the policy only at deterministic scope
/// boundaries (every `check_every` armed fault scopes — never from
/// wall-clock time), stopping the campaign or retiring a layer stratum
/// once both its SDC- and DUE-rate confidence intervals reach the target
/// half-width with at least `min_samples` observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopPolicy {
    /// Target CI half-width (the "±" on the reported rate), in `(0, 0.5]`.
    pub half_width: f64,
    /// Two-sided confidence level, e.g. `0.95`, in `(0, 1)`.
    pub confidence: f64,
    /// Minimum observations per tracked population before a verdict.
    pub min_samples: usize,
    /// Evaluate every this many armed fault scopes (≥ 1).
    pub check_every: usize,
    /// Whole-campaign interval or per-layer strata.
    pub scope: StopScope,
    /// Interval construction used for the verdict.
    pub method: CiMethod,
}

impl Default for StopPolicy {
    fn default() -> Self {
        StopPolicy {
            half_width: 0.05,
            confidence: 0.95,
            min_samples: 30,
            check_every: 16,
            scope: StopScope::Campaign,
            method: CiMethod::Wilson,
        }
    }
}

impl StopPolicy {
    /// Validates field ranges, naming the offending field on error.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidField`] when a field is out of
    /// range.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if !(self.half_width > 0.0 && self.half_width <= 0.5) {
            return Err(invalid("stop_policy.half_width", "must be in (0, 0.5]"));
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(invalid("stop_policy.confidence", "must be in (0, 1)"));
        }
        if self.min_samples == 0 {
            return Err(invalid("stop_policy.min_samples", "must be at least 1"));
        }
        if self.check_every == 0 {
            return Err(invalid("stop_policy.check_every", "must be at least 1"));
        }
        Ok(())
    }
}

/// Error produced when a scenario file is malformed or inconsistent.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// YAML-level syntax error.
    Parse(ParseYamlError),
    /// A field had the wrong type or an invalid value.
    InvalidField {
        /// Field name.
        field: &'static str,
        /// Description of the problem.
        reason: String,
    },
    /// File I/O failed.
    Io(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "{e}"),
            ScenarioError::InvalidField { field, reason } => {
                write!(f, "invalid scenario field `{field}`: {reason}")
            }
            ScenarioError::Io(msg) => write!(f, "scenario file i/o error: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ParseYamlError> for ScenarioError {
    fn from(e: ParseYamlError) -> Self {
        ScenarioError::Parse(e)
    }
}

/// A complete fault-injection campaign configuration — the Rust
/// counterpart of PyTorchALFI's `default.yml`.
///
/// The total number of pre-generated faults is
/// `dataset_size * num_runs * faults_per_image` (paper §V-C:
/// `n = a · b · c`).
///
/// # Example
///
/// ```
/// use alfi_scenario::{Scenario, FaultMode, InjectionTarget};
///
/// let mut s = Scenario::default();
/// s.dataset_size = 100;
/// s.injection_target = InjectionTarget::Weights;
/// s.fault_mode = FaultMode::exponent_bit_flip();
/// let yml = s.to_yaml_string();
/// let back = Scenario::from_yaml_str(&yml)?;
/// assert_eq!(s, back);
/// # Ok::<(), alfi_scenario::ScenarioError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Number of images (or dataset subset size) per run — `a`.
    pub dataset_size: usize,
    /// Number of passes over the dataset (epochs) — `b`.
    pub num_runs: usize,
    /// Simultaneous faults per image — `c` (fixed or fractional).
    pub faults_per_image: FaultCount,
    /// Images per batch.
    pub batch_size: usize,
    /// Whether to corrupt neurons or weights.
    pub injection_target: InjectionTarget,
    /// How often the active fault set advances.
    pub injection_policy: InjectionPolicy,
    /// Transient or permanent faults.
    pub fault_duration: FaultDuration,
    /// The value corruption model.
    pub fault_mode: FaultMode,
    /// Layer kinds eligible for injection.
    pub layer_types: Vec<LayerType>,
    /// Optional inclusive range restricting injection to specific layer
    /// indices (positions within the model's injectable-layer list).
    pub layer_range: Option<(usize, usize)>,
    /// Weight the random layer choice by relative layer size (Eq. 1).
    pub weighted_layer_selection: bool,
    /// RNG seed for fault generation.
    pub seed: u64,
    /// Optional statistical early-stop policy. `None` (the default)
    /// executes the full fault matrix; the key is omitted from the YAML
    /// serialization when unset so legacy scenarios hash identically.
    pub stop_policy: Option<StopPolicy>,
    /// Optional on-disk format for outcome rows (YAML key `format`).
    /// `None` defaults to CSV and — like `stop_policy` — is omitted
    /// from the serialization so legacy scenario files and replay
    /// fingerprints are unchanged.
    pub artifact_format: Option<ArtifactFormat>,
    /// Optional end-of-run report generation (YAML key `report`):
    /// `true` asks `alfi classify` to write `report.json` / `report.md`
    /// next to the other artifacts once the run has finished (its
    /// `--report` flag wins over the key); `alfi detect` rejects it, as
    /// reports cover classification runs only. The campaign runners
    /// (`run_with`) do not read it. `None` defaults to off and — like
    /// `stop_policy` — is omitted from the serialization so legacy
    /// scenario files and replay fingerprints are unchanged.
    pub report: Option<bool>,
    /// Multi-resolution per-layer overrides (YAML key `layers`): a map
    /// from layer pattern to [`LayerOverride`]. Empty (the default)
    /// means single-resolution injection; the key is omitted from the
    /// YAML serialization when empty so legacy scenario files and
    /// replay fingerprints are unchanged.
    pub layer_overrides: BTreeMap<String, LayerOverride>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            dataset_size: 100,
            num_runs: 1,
            faults_per_image: FaultCount::Fixed(1),
            batch_size: 1,
            injection_target: InjectionTarget::Neurons,
            injection_policy: InjectionPolicy::PerImage,
            fault_duration: FaultDuration::Transient,
            fault_mode: FaultMode::any_bit_flip(),
            layer_types: vec![LayerType::Conv2d, LayerType::Conv3d, LayerType::Linear],
            layer_range: None,
            weighted_layer_selection: true,
            seed: 0,
            stop_policy: None,
            artifact_format: None,
            report: None,
            layer_overrides: BTreeMap::new(),
        }
    }
}

impl Scenario {
    /// Total number of faults to pre-generate: `a · b · c` with `c`
    /// resolved against `total_elements` (the model's weight or neuron
    /// count, depending on the target).
    pub fn total_faults(&self, total_elements: usize) -> usize {
        self.dataset_size * self.num_runs * self.faults_per_image.resolve(total_elements)
    }

    /// Parses a scenario from YAML text. Missing fields fall back to
    /// [`Scenario::default`] values; present fields are validated.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] on syntax errors or invalid field values.
    pub fn from_yaml_str(text: &str) -> Result<Scenario, ScenarioError> {
        let y = Yaml::parse(text)?;
        let mut s = Scenario::default();

        if let Some(v) = y.get("dataset_size") {
            s.dataset_size = usize_field(v, "dataset_size")?;
        }
        if let Some(v) = y.get("num_runs") {
            s.num_runs = usize_field(v, "num_runs")?;
        }
        if let Some(v) = y.get("batch_size") {
            s.batch_size = usize_field(v, "batch_size")?;
            if s.batch_size == 0 {
                return Err(invalid("batch_size", "must be at least 1"));
            }
        }
        if let Some(v) = y.get("max_faults_per_image") {
            s.faults_per_image = match v {
                Yaml::Int(i) if *i >= 0 => FaultCount::Fixed(*i as usize),
                Yaml::Float(f) if (0.0..=1.0).contains(f) => FaultCount::Fraction(*f),
                _ => {
                    return Err(invalid(
                        "max_faults_per_image",
                        "expected a non-negative integer or a fraction in [0,1]",
                    ))
                }
            };
        }
        if let Some(v) = y.get("injection_target") {
            s.injection_target = match v.as_str() {
                Some("neurons") => InjectionTarget::Neurons,
                Some("weights") => InjectionTarget::Weights,
                _ => return Err(invalid("injection_target", "expected `neurons` or `weights`")),
            };
        }
        if let Some(v) = y.get("injection_policy") {
            s.injection_policy = match v.as_str() {
                Some("per_image") => InjectionPolicy::PerImage,
                Some("per_batch") => InjectionPolicy::PerBatch,
                Some("per_epoch") => InjectionPolicy::PerEpoch,
                _ => {
                    return Err(invalid(
                        "injection_policy",
                        "expected `per_image`, `per_batch` or `per_epoch`",
                    ))
                }
            };
        }
        if let Some(v) = y.get("fault_duration") {
            s.fault_duration = match v.as_str() {
                Some("transient") => FaultDuration::Transient,
                Some("permanent") => FaultDuration::Permanent,
                _ => return Err(invalid("fault_duration", "expected `transient` or `permanent`")),
            };
        }
        if let Some(v) = y.get("fault_mode") {
            s.fault_mode = parse_fault_mode(v)?;
        }
        if let Some(v) = y.get("layer_types") {
            let list = v
                .as_list()
                .ok_or_else(|| invalid("layer_types", "expected a list"))?;
            let mut types = Vec::new();
            for item in list {
                types.push(match item.as_str() {
                    Some("conv2d") => LayerType::Conv2d,
                    Some("conv3d") => LayerType::Conv3d,
                    Some("linear") => LayerType::Linear,
                    _ => {
                        return Err(invalid(
                            "layer_types",
                            "entries must be conv2d, conv3d or linear",
                        ))
                    }
                });
            }
            if types.is_empty() {
                return Err(invalid("layer_types", "must not be empty"));
            }
            s.layer_types = types;
        }
        if let Some(v) = y.get("layer_range") {
            match v {
                Yaml::Null => s.layer_range = None,
                Yaml::List(items) if items.len() == 2 => {
                    let lo = usize_field(&items[0], "layer_range")?;
                    let hi = usize_field(&items[1], "layer_range")?;
                    if lo > hi {
                        return Err(invalid("layer_range", "low bound exceeds high bound"));
                    }
                    s.layer_range = Some((lo, hi));
                }
                _ => return Err(invalid("layer_range", "expected `[low, high]` or null")),
            }
        }
        if let Some(v) = y.get("weighted_layer_selection") {
            s.weighted_layer_selection = v
                .as_bool()
                .ok_or_else(|| invalid("weighted_layer_selection", "expected a boolean"))?;
        }
        if let Some(v) = y.get("seed") {
            let i = v.as_i64().ok_or_else(|| invalid("seed", "expected an integer"))?;
            s.seed = i as u64;
        }
        if let Some(v) = y.get("stop_policy") {
            s.stop_policy = match v {
                Yaml::Null => None,
                _ => Some(parse_stop_policy(v)?),
            };
        }
        if let Some(v) = y.get("format") {
            s.artifact_format = match v {
                Yaml::Null => None,
                _ => Some(
                    v.as_str()
                        .ok_or_else(|| invalid("format", "expected `csv` or `binary`"))?
                        .parse()?,
                ),
            };
        }
        if let Some(v) = y.get("report") {
            s.report = match v {
                Yaml::Null => None,
                _ => Some(
                    v.as_bool().ok_or_else(|| invalid("report", "expected true or false"))?,
                ),
            };
        }
        if let Some(v) = y.get("layers") {
            s.layer_overrides = match v {
                Yaml::Null => BTreeMap::new(),
                Yaml::Map(entries) => {
                    let mut out = BTreeMap::new();
                    for (pattern, spec) in entries {
                        if pattern.is_empty() {
                            return Err(invalid("layers", "layer pattern must not be empty"));
                        }
                        out.insert(pattern.clone(), parse_layer_override(spec)?);
                    }
                    out
                }
                _ => return Err(invalid("layers", "expected a map of layer overrides")),
            };
        }
        Ok(s)
    }

    /// Serializes the scenario to YAML. `from_yaml_str` on the output
    /// reproduces the scenario exactly.
    pub fn to_yaml_string(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert("dataset_size".into(), Yaml::Int(self.dataset_size as i64));
        m.insert("num_runs".into(), Yaml::Int(self.num_runs as i64));
        m.insert("batch_size".into(), Yaml::Int(self.batch_size as i64));
        m.insert(
            "max_faults_per_image".into(),
            match self.faults_per_image {
                FaultCount::Fixed(n) => Yaml::Int(n as i64),
                FaultCount::Fraction(f) => Yaml::Float(f),
            },
        );
        m.insert("injection_target".into(), Yaml::Str(self.injection_target.to_string()));
        m.insert("injection_policy".into(), Yaml::Str(self.injection_policy.to_string()));
        m.insert("fault_duration".into(), Yaml::Str(self.fault_duration.to_string()));
        m.insert("fault_mode".into(), fault_mode_yaml(&self.fault_mode));
        m.insert(
            "layer_types".into(),
            Yaml::List(self.layer_types.iter().map(|t| Yaml::Str(t.to_string())).collect()),
        );
        m.insert(
            "layer_range".into(),
            match self.layer_range {
                None => Yaml::Null,
                Some((lo, hi)) => Yaml::List(vec![Yaml::Int(lo as i64), Yaml::Int(hi as i64)]),
            },
        );
        m.insert("weighted_layer_selection".into(), Yaml::Bool(self.weighted_layer_selection));
        m.insert("seed".into(), Yaml::Int(self.seed as i64));
        // Emitted only when set: adding the key to every scenario would
        // change the serialized form (and hence the replay fingerprint)
        // of campaigns that never opted into early stopping.
        if let Some(p) = &self.stop_policy {
            m.insert("stop_policy".into(), stop_policy_yaml(p));
        }
        if let Some(fmt) = &self.artifact_format {
            m.insert("format".into(), Yaml::Str(fmt.to_string()));
        }
        if let Some(report) = self.report {
            m.insert("report".into(), Yaml::Bool(report));
        }
        if !self.layer_overrides.is_empty() {
            let mut layers = BTreeMap::new();
            for (pattern, o) in &self.layer_overrides {
                layers.insert(pattern.clone(), layer_override_yaml(o));
            }
            m.insert("layers".into(), Yaml::Map(layers));
        }
        Yaml::Map(m).to_yaml_string()
    }

    /// Loads a scenario from a YAML file.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] if the file cannot be read, plus any
    /// parse/validation error.
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, ScenarioError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| ScenarioError::Io(e.to_string()))?;
        Scenario::from_yaml_str(&text)
    }

    /// Saves the scenario as a YAML file.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ScenarioError> {
        std::fs::write(path.as_ref(), self.to_yaml_string())
            .map_err(|e| ScenarioError::Io(e.to_string()))
    }
}

fn invalid(field: &'static str, reason: impl Into<String>) -> ScenarioError {
    ScenarioError::InvalidField { field, reason: reason.into() }
}

fn usize_field(v: &Yaml, field: &'static str) -> Result<usize, ScenarioError> {
    match v.as_i64() {
        Some(i) if i >= 0 => Ok(i as usize),
        _ => Err(invalid(field, "expected a non-negative integer")),
    }
}

fn bit_range(v: &Yaml, field: &'static str) -> Result<(u8, u8), ScenarioError> {
    let list = v.as_list().ok_or_else(|| invalid(field, "expected `[low, high]`"))?;
    if list.len() != 2 {
        return Err(invalid(field, "expected exactly two entries"));
    }
    let lo = list[0].as_i64().ok_or_else(|| invalid(field, "bounds must be integers"))?;
    let hi = list[1].as_i64().ok_or_else(|| invalid(field, "bounds must be integers"))?;
    if !(0..=31).contains(&lo) || !(0..=31).contains(&hi) || lo > hi {
        return Err(invalid(field, "bounds must satisfy 0 <= low <= high <= 31"));
    }
    Ok((lo as u8, hi as u8))
}

fn parse_fault_mode(v: &Yaml) -> Result<FaultMode, ScenarioError> {
    let mode = v
        .get("mode")
        .and_then(Yaml::as_str)
        .ok_or_else(|| invalid("fault_mode", "missing `mode` key"))?;
    match mode {
        "bitflip" => {
            let range = v
                .get("rnd_bit_range")
                .map(|r| bit_range(r, "fault_mode"))
                .transpose()?
                .unwrap_or((0, 31));
            Ok(FaultMode::BitFlip { bit_range: range })
        }
        "stuck_at" => {
            let range = v
                .get("rnd_bit_range")
                .map(|r| bit_range(r, "fault_mode"))
                .transpose()?
                .unwrap_or((0, 31));
            let stuck_high = v
                .get("stuck_high")
                .map(|b| b.as_bool().ok_or_else(|| invalid("fault_mode", "stuck_high must be a boolean")))
                .transpose()?
                .unwrap_or(true);
            Ok(FaultMode::StuckAt { bit_range: range, stuck_high })
        }
        "random_value" => {
            let min = v
                .get("min")
                .and_then(Yaml::as_f64)
                .ok_or_else(|| invalid("fault_mode", "random_value requires numeric `min`"))?;
            let max = v
                .get("max")
                .and_then(Yaml::as_f64)
                .ok_or_else(|| invalid("fault_mode", "random_value requires numeric `max`"))?;
            // NaN min/max must be rejected too: NaN compares false on
            // both orderings, so only a definite min<=max passes.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(min <= max) {
                return Err(invalid("fault_mode", "min must not exceed max"));
            }
            Ok(FaultMode::RandomValue { min: min as f32, max: max as f32 })
        }
        "quant_step" => {
            let bits = v
                .get("bits")
                .map(|b| usize_field(b, "fault_mode"))
                .transpose()?
                .unwrap_or(8);
            if !(2..=16).contains(&bits) {
                return Err(invalid("fault_mode", "quant_step bits must be in [2, 16]"));
            }
            let amax = v
                .get("amax")
                .and_then(Yaml::as_f64)
                .ok_or_else(|| invalid("fault_mode", "quant_step requires numeric `amax`"))?;
            if !(amax > 0.0 && amax.is_finite()) {
                return Err(invalid("fault_mode", "quant_step amax must be finite and > 0"));
            }
            let range = v
                .get("rnd_bit_range")
                .map(|r| bit_range(r, "fault_mode"))
                .transpose()?
                .unwrap_or((0, bits as u8 - 1));
            if range.1 as usize >= bits {
                return Err(invalid(
                    "fault_mode",
                    format!("rnd_bit_range high bound must be below bits ({bits})"),
                ));
            }
            Ok(FaultMode::QuantStep { bits: bits as u8, amax: amax as f32, bit_range: range })
        }
        other => Err(invalid("fault_mode", format!("unknown mode `{other}`"))),
    }
}

fn parse_layer_override(v: &Yaml) -> Result<LayerOverride, ScenarioError> {
    if !matches!(v, Yaml::Map(_)) {
        return Err(invalid("layers", "each override must be a map"));
    }
    let mut o = LayerOverride::default();
    if let Some(r) = v.get("rate") {
        let rate = r.as_f64().ok_or_else(|| invalid("layers", "rate must be a number"))?;
        if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
            return Err(invalid("layers", "rate must be in [0, 1]"));
        }
        o.rate = Some(rate);
    }
    if let Some(m) = v.get("mode").or_else(|| v.get("fault_mode")) {
        o.mode = Some(parse_fault_mode(m)?);
    }
    if let Some(c) = v.get("channels") {
        let list = c.as_list().ok_or_else(|| invalid("layers", "channels must be `[low, high]`"))?;
        if list.len() != 2 {
            return Err(invalid("layers", "channels must have exactly two entries"));
        }
        let lo = usize_field(&list[0], "layers")?;
        let hi = usize_field(&list[1], "layers")?;
        if lo > hi {
            return Err(invalid("layers", "channels low bound exceeds high bound"));
        }
        o.channel_range = Some((lo, hi));
    }
    if o.is_empty() {
        return Err(invalid("layers", "override sets none of rate/mode/channels"));
    }
    Ok(o)
}

fn layer_override_yaml(o: &LayerOverride) -> Yaml {
    let mut map = BTreeMap::new();
    if let Some(rate) = o.rate {
        map.insert("rate".into(), Yaml::Float(rate));
    }
    if let Some(mode) = &o.mode {
        map.insert("mode".into(), fault_mode_yaml(mode));
    }
    if let Some((lo, hi)) = o.channel_range {
        map.insert("channels".into(), Yaml::List(vec![Yaml::Int(lo as i64), Yaml::Int(hi as i64)]));
    }
    Yaml::Map(map)
}

fn parse_stop_policy(v: &Yaml) -> Result<StopPolicy, ScenarioError> {
    let mut p = StopPolicy::default();
    if let Some(hw) = v.get("half_width") {
        p.half_width = hw
            .as_f64()
            .ok_or_else(|| invalid("stop_policy.half_width", "expected a number"))?;
    }
    if let Some(c) = v.get("confidence") {
        p.confidence = c
            .as_f64()
            .ok_or_else(|| invalid("stop_policy.confidence", "expected a number"))?;
    }
    if let Some(m) = v.get("min_samples") {
        p.min_samples = usize_field(m, "stop_policy.min_samples")?;
    }
    if let Some(c) = v.get("check_every") {
        p.check_every = usize_field(c, "stop_policy.check_every")?;
    }
    if let Some(s) = v.get("scope") {
        p.scope = match s.as_str() {
            Some("campaign") => StopScope::Campaign,
            Some("per_layer") => StopScope::PerLayer,
            _ => return Err(invalid("stop_policy.scope", "expected `campaign` or `per_layer`")),
        };
    }
    if let Some(m) = v.get("method") {
        p.method = match m.as_str() {
            Some("wilson") => CiMethod::Wilson,
            Some("clopper_pearson") => CiMethod::ClopperPearson,
            _ => {
                return Err(invalid(
                    "stop_policy.method",
                    "expected `wilson` or `clopper_pearson`",
                ))
            }
        };
    }
    p.validate()?;
    Ok(p)
}

fn stop_policy_yaml(p: &StopPolicy) -> Yaml {
    let mut map = BTreeMap::new();
    map.insert("half_width".into(), Yaml::Float(p.half_width));
    map.insert("confidence".into(), Yaml::Float(p.confidence));
    map.insert("min_samples".into(), Yaml::Int(p.min_samples as i64));
    map.insert("check_every".into(), Yaml::Int(p.check_every as i64));
    map.insert("scope".into(), Yaml::Str(p.scope.to_string()));
    map.insert("method".into(), Yaml::Str(p.method.to_string()));
    Yaml::Map(map)
}

fn fault_mode_yaml(m: &FaultMode) -> Yaml {
    let mut map = BTreeMap::new();
    match m {
        FaultMode::BitFlip { bit_range } => {
            map.insert("mode".into(), Yaml::Str("bitflip".into()));
            map.insert(
                "rnd_bit_range".into(),
                Yaml::List(vec![Yaml::Int(bit_range.0 as i64), Yaml::Int(bit_range.1 as i64)]),
            );
        }
        FaultMode::StuckAt { bit_range, stuck_high } => {
            map.insert("mode".into(), Yaml::Str("stuck_at".into()));
            map.insert(
                "rnd_bit_range".into(),
                Yaml::List(vec![Yaml::Int(bit_range.0 as i64), Yaml::Int(bit_range.1 as i64)]),
            );
            map.insert("stuck_high".into(), Yaml::Bool(*stuck_high));
        }
        FaultMode::RandomValue { min, max } => {
            map.insert("mode".into(), Yaml::Str("random_value".into()));
            map.insert("min".into(), Yaml::Float(*min as f64));
            map.insert("max".into(), Yaml::Float(*max as f64));
        }
        FaultMode::QuantStep { bits, amax, bit_range } => {
            map.insert("mode".into(), Yaml::Str("quant_step".into()));
            map.insert("bits".into(), Yaml::Int(*bits as i64));
            map.insert("amax".into(), Yaml::Float(*amax as f64));
            map.insert(
                "rnd_bit_range".into(),
                Yaml::List(vec![Yaml::Int(bit_range.0 as i64), Yaml::Int(bit_range.1 as i64)]),
            );
        }
    }
    Yaml::Map(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_round_trips() {
        let s = Scenario::default();
        let back = Scenario::from_yaml_str(&s.to_yaml_string()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn all_variants_round_trip() {
        let mut s = Scenario {
            dataset_size: 512,
            num_runs: 3,
            faults_per_image: FaultCount::Fraction(0.001),
            batch_size: 8,
            injection_target: InjectionTarget::Weights,
            injection_policy: InjectionPolicy::PerEpoch,
            fault_duration: FaultDuration::Permanent,
            fault_mode: FaultMode::StuckAt { bit_range: (23, 30), stuck_high: false },
            layer_types: vec![LayerType::Conv2d],
            layer_range: Some((2, 7)),
            weighted_layer_selection: false,
            seed: 42,
            stop_policy: Some(StopPolicy {
                half_width: 0.02,
                confidence: 0.99,
                min_samples: 64,
                check_every: 8,
                scope: StopScope::PerLayer,
                method: CiMethod::ClopperPearson,
            }),
            artifact_format: Some(ArtifactFormat::Binary),
            report: Some(true),
            layer_overrides: BTreeMap::from([
                (
                    "features*".to_string(),
                    LayerOverride {
                        rate: Some(0.25),
                        mode: Some(FaultMode::QuantStep {
                            bits: 8,
                            amax: 4.0,
                            bit_range: (0, 7),
                        }),
                        channel_range: Some((0, 3)),
                    },
                ),
                ("2-5".to_string(), LayerOverride { rate: Some(0.5), ..Default::default() }),
            ]),
        };
        let back = Scenario::from_yaml_str(&s.to_yaml_string()).unwrap();
        assert_eq!(s, back);
        s.fault_mode = FaultMode::RandomValue { min: -2.5, max: 7.25 };
        let back = Scenario::from_yaml_str(&s.to_yaml_string()).unwrap();
        assert_eq!(s, back);
        s.fault_mode = FaultMode::QuantStep { bits: 6, amax: 2.5, bit_range: (1, 5) };
        let back = Scenario::from_yaml_str(&s.to_yaml_string()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn quant_step_defaults_and_validation() {
        let s = Scenario::from_yaml_str("fault_mode:\n  mode: quant_step\n  amax: 2.0\n").unwrap();
        assert_eq!(s.fault_mode, FaultMode::QuantStep { bits: 8, amax: 2.0, bit_range: (0, 7) });
        for bad in [
            "fault_mode:\n  mode: quant_step\n", // amax missing
            "fault_mode:\n  mode: quant_step\n  amax: 0\n",
            "fault_mode:\n  mode: quant_step\n  amax: -1.5\n",
            "fault_mode:\n  mode: quant_step\n  amax: 2.0\n  bits: 1\n",
            "fault_mode:\n  mode: quant_step\n  amax: 2.0\n  bits: 33\n",
            "fault_mode:\n  mode: quant_step\n  amax: 2.0\n  bits: 4\n  rnd_bit_range: [0, 4]\n",
        ] {
            assert!(Scenario::from_yaml_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn layer_overrides_absent_by_default_and_omitted_from_yaml() {
        let s = Scenario::default();
        assert!(s.layer_overrides.is_empty());
        assert!(!s.to_yaml_string().contains("layers"));
        // Explicit null keeps the map empty.
        let s = Scenario::from_yaml_str("layers: null\n").unwrap();
        assert!(s.layer_overrides.is_empty());
    }

    #[test]
    fn layer_overrides_parse_and_round_trip() {
        let text = "\
layers:
  features.3:
    rate: 0.5
    channels: [0, 15]
  head:
    mode:
      mode: quant_step
      amax: 4.0
      bits: 8
";
        let s = Scenario::from_yaml_str(text).unwrap();
        assert_eq!(s.layer_overrides.len(), 2);
        let f3 = &s.layer_overrides["features.3"];
        assert_eq!(f3.rate, Some(0.5));
        assert_eq!(f3.channel_range, Some((0, 15)));
        assert_eq!(f3.mode, None);
        let head = &s.layer_overrides["head"];
        assert_eq!(head.mode, Some(FaultMode::QuantStep { bits: 8, amax: 4.0, bit_range: (0, 7) }));
        let back = Scenario::from_yaml_str(&s.to_yaml_string()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn layer_overrides_reject_invalid_entries() {
        for bad in [
            "layers: 7\n",
            "layers:\n  conv1: 3\n",
            "layers:\n  conv1:\n    rate: 1.5\n",
            "layers:\n  conv1:\n    rate: -0.1\n",
            "layers:\n  conv1:\n    channels: [5, 2]\n",
            "layers:\n  conv1:\n    channels: [1]\n",
            "layers:\n  conv1:\n    mode:\n      mode: wat\n",
            "layers:\n  conv1: {}\n",
        ] {
            assert!(Scenario::from_yaml_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn missing_fields_take_defaults() {
        let s = Scenario::from_yaml_str("dataset_size: 7\n").unwrap();
        assert_eq!(s.dataset_size, 7);
        assert_eq!(s.num_runs, Scenario::default().num_runs);
        assert_eq!(s.fault_mode, FaultMode::any_bit_flip());
    }

    #[test]
    fn paper_style_document_parses() {
        let text = "\
# PyTorchALFI-style scenario
dataset_size: 1000
num_runs: 1
max_faults_per_image: 1
injection_target: weights
injection_policy: per_image
fault_mode:
  mode: bitflip
  rnd_bit_range: [23, 30]
layer_types:
  - conv2d
  - linear
weighted_layer_selection: true
seed: 1234
";
        let s = Scenario::from_yaml_str(text).unwrap();
        assert_eq!(s.injection_target, InjectionTarget::Weights);
        assert_eq!(s.fault_mode, FaultMode::exponent_bit_flip());
        assert_eq!(s.layer_types, vec![LayerType::Conv2d, LayerType::Linear]);
        assert_eq!(s.seed, 1234);
    }

    #[test]
    fn total_faults_is_product_of_a_b_c() {
        let mut s = Scenario::default();
        s.dataset_size = 10;
        s.num_runs = 3;
        s.faults_per_image = FaultCount::Fixed(5);
        assert_eq!(s.total_faults(1_000_000), 150);
        s.faults_per_image = FaultCount::Fraction(0.001);
        assert_eq!(s.total_faults(10_000), 10 * 3 * 10);
    }

    #[test]
    fn fraction_count_is_at_least_one() {
        assert_eq!(FaultCount::Fraction(1e-9).resolve(10), 1);
        assert_eq!(FaultCount::Fixed(0).resolve(10), 0);
    }

    #[test]
    fn invalid_fields_are_rejected() {
        assert!(Scenario::from_yaml_str("injection_target: cpu\n").is_err());
        assert!(Scenario::from_yaml_str("injection_policy: sometimes\n").is_err());
        assert!(Scenario::from_yaml_str("fault_duration: flaky\n").is_err());
        assert!(Scenario::from_yaml_str("dataset_size: -1\n").is_err());
        assert!(Scenario::from_yaml_str("batch_size: 0\n").is_err());
        assert!(Scenario::from_yaml_str("layer_types: []\n").is_err());
        assert!(Scenario::from_yaml_str("layer_range: [5, 2]\n").is_err());
        assert!(Scenario::from_yaml_str("fault_mode:\n  mode: wat\n").is_err());
        assert!(Scenario::from_yaml_str("fault_mode:\n  mode: bitflip\n  rnd_bit_range: [0, 40]\n").is_err());
        assert!(Scenario::from_yaml_str("fault_mode:\n  mode: random_value\n  min: 3\n  max: 1\n").is_err());
        assert!(Scenario::from_yaml_str("max_faults_per_image: 1.5\n").is_err());
    }

    #[test]
    fn stop_policy_absent_by_default_and_omitted_from_yaml() {
        let s = Scenario::default();
        assert_eq!(s.stop_policy, None);
        assert!(!s.to_yaml_string().contains("stop_policy"));
    }

    #[test]
    fn stop_policy_parses_with_partial_keys() {
        let s = Scenario::from_yaml_str("stop_policy:\n  half_width: 0.1\n").unwrap();
        let p = s.stop_policy.unwrap();
        assert_eq!(p.half_width, 0.1);
        assert_eq!(p.confidence, StopPolicy::default().confidence);
        assert_eq!(p.scope, StopScope::Campaign);
        assert_eq!(p.method, CiMethod::Wilson);
        // Explicit null keeps the policy off.
        let s = Scenario::from_yaml_str("stop_policy: null\n").unwrap();
        assert_eq!(s.stop_policy, None);
    }

    #[test]
    fn stop_policy_rejects_out_of_range_fields() {
        for bad in [
            "stop_policy:\n  half_width: 0.0\n",
            "stop_policy:\n  half_width: 0.7\n",
            "stop_policy:\n  confidence: 1.0\n",
            "stop_policy:\n  min_samples: 0\n",
            "stop_policy:\n  check_every: 0\n",
            "stop_policy:\n  scope: sometimes\n",
            "stop_policy:\n  method: gaussian\n",
        ] {
            let e = Scenario::from_yaml_str(bad).unwrap_err();
            assert!(e.to_string().contains("stop_policy"), "{bad}: {e}");
        }
    }

    #[test]
    fn artifact_format_parses_and_is_omitted_by_default() {
        let s = Scenario::default();
        assert_eq!(s.artifact_format, None);
        assert!(!s.to_yaml_string().contains("format"));

        let s = Scenario::from_yaml_str("format: binary\n").unwrap();
        assert_eq!(s.artifact_format, Some(ArtifactFormat::Binary));
        assert!(s.to_yaml_string().contains("format: binary"));
        let back = Scenario::from_yaml_str(&s.to_yaml_string()).unwrap();
        assert_eq!(s, back);

        let s = Scenario::from_yaml_str("format: csv\n").unwrap();
        assert_eq!(s.artifact_format, Some(ArtifactFormat::Csv));
        let s = Scenario::from_yaml_str("format: null\n").unwrap();
        assert_eq!(s.artifact_format, None);
        assert!(Scenario::from_yaml_str("format: parquet\n").is_err());
        assert_eq!("binary".parse::<ArtifactFormat>().unwrap(), ArtifactFormat::Binary);
        assert!("xml".parse::<ArtifactFormat>().is_err());
    }

    #[test]
    fn report_key_parses_and_is_omitted_by_default() {
        let s = Scenario::default();
        assert_eq!(s.report, None);
        assert!(!s.to_yaml_string().contains("report"));

        let s = Scenario::from_yaml_str("report: true\n").unwrap();
        assert_eq!(s.report, Some(true));
        assert!(s.to_yaml_string().contains("report: true"));
        let back = Scenario::from_yaml_str(&s.to_yaml_string()).unwrap();
        assert_eq!(s, back);

        let s = Scenario::from_yaml_str("report: false\n").unwrap();
        assert_eq!(s.report, Some(false));
        let s = Scenario::from_yaml_str("report: null\n").unwrap();
        assert_eq!(s.report, None);
        assert!(Scenario::from_yaml_str("report: maybe\n").is_err());
    }

    #[test]
    fn fractional_faults_parse_from_float() {
        let s = Scenario::from_yaml_str("max_faults_per_image: 0.01\n").unwrap();
        assert_eq!(s.faults_per_image, FaultCount::Fraction(0.01));
    }

    #[test]
    fn save_and_load_files() {
        let dir = std::env::temp_dir().join("alfi_scenario_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("default.yml");
        let s = Scenario { seed: 77, ..Scenario::default() };
        s.save(&path).unwrap();
        let back = Scenario::load(&path).unwrap();
        assert_eq!(s, back);
        assert!(Scenario::load(dir.join("missing.yml")).is_err());
    }

    #[test]
    fn error_messages_name_the_field() {
        let e = Scenario::from_yaml_str("seed: notanumber\n").unwrap_err();
        assert!(e.to_string().contains("seed"));
    }
}
