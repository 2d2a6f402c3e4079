//! Cross-format lockdown of the columnar result store.
//!
//! Runs the same classification campaign with `--format csv` and
//! `--format binary` at several thread counts and checks that the
//! binary store converts back to the exact CSV bytes, that the store
//! file itself is bit-identical across thread counts (and pinned as a
//! golden under `tests/golden/store/`), that point lookups touch at
//! most one block plus the trailing index, and that the columnar
//! encoding stays within the size budget relative to CSV.
//!
//! To bless a new golden store after an intentional format change:
//!
//! ```text
//! ALFI_REGEN_GOLDEN=1 cargo test --test store_formats
//! ```

use alfi::core::campaign::{ImgClassCampaign, RunConfig};
use alfi::core::{store_to_texts, text_to_store, Artifacts};
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::scenario::{ArtifactFormat, FaultMode, InjectionTarget, Scenario};
use alfi::store::{ColumnSpec, ColumnType, Encoding, RowKey, Schema, StoreReader, StoreWriter, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn golden_store_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("store")
        .join("rows.alfic")
}

fn scenario(dataset_size: usize) -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = dataset_size;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = 0x601D;
    s
}

fn campaign(dataset_size: usize) -> ImgClassCampaign {
    let mcfg = ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 7, ..ModelConfig::default() };
    let ds = ClassificationDataset::new(dataset_size, mcfg.num_classes, 3, 16, 13);
    let loader = ClassificationLoader::new(ds, 2);
    ImgClassCampaign::new(alexnet(&mcfg), scenario(dataset_size), loader)
}

/// Runs the campaign with the given format and thread count into a
/// fresh temp dir and returns the row artifacts as `name -> bytes`.
fn run(format: ArtifactFormat, threads: usize, size: usize, tag: &str) -> BTreeMap<String, Vec<u8>> {
    let dir = std::env::temp_dir().join(format!("alfi_it_store_{tag}_{threads}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RunConfig::new().threads(threads).save_dir(&dir).format(format);
    campaign(size).run_with(&cfg).unwrap();
    let a = Artifacts::new(&dir);
    let mut out = BTreeMap::new();
    for path in [a.rows_orig(), a.rows_corr(), a.rows_resil(), a.rows_store()] {
        if path.is_file() {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.insert(name, std::fs::read(&path).unwrap());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The binary store must convert back to the exact CSV bytes the csv
/// format writes, for the sequential driver and every pooled fan-out,
/// and the store file itself must be bit-identical across all of them
/// (pinned as a golden artifact).
#[test]
fn binary_store_round_trips_to_csv_bytes_at_all_thread_counts() {
    let csv = run(ArtifactFormat::Csv, 1, 4, "csv");
    assert!(csv.contains_key("results_orig.csv") && csv.contains_key("results_corr.csv"));

    let golden = golden_store_path();
    for threads in [1usize, 2, 4, 7] {
        let bin = run(ArtifactFormat::Binary, threads, 4, "bin");
        assert_eq!(bin.len(), 1, "binary format should write only rows.alfic, got {bin:?}");
        let store_bytes = &bin["rows.alfic"];

        // Pin (or check) the golden store with the 1-thread bytes;
        // every other thread count must reproduce them exactly.
        if threads == 1 && std::env::var_os("ALFI_REGEN_GOLDEN").is_some() {
            std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
            std::fs::write(&golden, store_bytes).unwrap();
            eprintln!("[golden] regenerated {}", golden.display());
        }
        let expected = std::fs::read(&golden).unwrap_or_else(|e| {
            panic!(
                "missing golden store {} ({e}); run ALFI_REGEN_GOLDEN=1 cargo test --test store_formats",
                golden.display()
            )
        });
        assert_eq!(
            store_bytes, &expected,
            "rows.alfic from the {threads}-thread run diverges from the golden store"
        );

        // Convert back and compare against the csv-format artifacts.
        let tmp = std::env::temp_dir().join(format!("alfi_it_store_conv_{threads}.alfic"));
        std::fs::write(&tmp, store_bytes).unwrap();
        let texts = store_to_texts(&tmp).unwrap();
        let _ = std::fs::remove_file(&tmp);
        assert_eq!(texts.len(), 2, "classification store without resil converts to two CSVs");
        for (name, text) in &texts {
            assert_eq!(
                text.as_bytes(),
                csv[name].as_slice(),
                "{name} converted from the {threads}-thread store differs from the csv run"
            );
        }
    }
}

/// A point lookup must binary-search the trailing index and decode at
/// most one block — not scan the file.
#[test]
fn lookup_reads_at_most_one_block_plus_index() {
    let path = std::env::temp_dir().join("alfi_it_store_lookup.alfic");
    let _ = std::fs::remove_file(&path);
    let schema = Schema::new(vec![
        ColumnSpec::new("image_id", ColumnType::U64, Encoding::Delta),
        ColumnSpec::new("note", ColumnType::Str, Encoding::Prefix),
    ]);
    let mut w = StoreWriter::create(&path, schema, 8).unwrap();
    for i in 0..64u64 {
        let values = vec![Value::U64(i), Value::Str(format!("row {i}"))];
        w.append(RowKey::new(0, (i / 2) as u32, i), &values).unwrap();
    }
    let stats = w.finish().unwrap();
    assert_eq!(stats.rows, 64);

    let mut r = StoreReader::open(&path).unwrap();
    assert_eq!(r.block_count(), 8);
    let rows = r.lookup_fault(42).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].0, RowKey::new(0, 21, 42));
    assert_eq!(r.blocks_read(), 1, "a point lookup must decode exactly one block");
    let file_len = std::fs::metadata(&path).unwrap().len();
    assert!(
        r.bytes_read() < file_len / 2,
        "lookup read {} of {} bytes — that is a scan, not an indexed read",
        r.bytes_read(),
        file_len
    );
    let _ = std::fs::remove_file(&path);
}

/// `lookup_fault` must agree with a full scan filtered on the key.
#[test]
fn lookup_matches_scan_filter() {
    let dir = std::env::temp_dir().join("alfi_it_store_scanfilter");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RunConfig::new().save_dir(&dir).format(ArtifactFormat::Binary);
    campaign(4).run_with(&cfg).unwrap();
    let store = Artifacts::new(&dir).rows_store();

    let all = StoreReader::open(&store).unwrap().scan().unwrap();
    assert!(!all.is_empty());
    for fault_id in all.iter().map(|(k, _)| k.fault_id).collect::<std::collections::BTreeSet<_>>() {
        let looked = StoreReader::open(&store).unwrap().lookup_fault(fault_id).unwrap();
        let filtered: Vec<_> =
            all.iter().filter(|(k, _)| k.fault_id == fault_id).cloned().collect();
        assert_eq!(looked, filtered, "lookup/scan disagree for fault {fault_id}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The columnar encoding must stay within the paper-motivated size
/// budget: the store holds both CSV variants in at most 40% of their
/// combined bytes once there are enough rows to amortize the header
/// and index.
#[test]
fn binary_store_is_within_size_budget() {
    let csv = run(ArtifactFormat::Csv, 1, 128, "size_csv");
    let bin = run(ArtifactFormat::Binary, 1, 128, "size_bin");
    let csv_bytes = csv["results_orig.csv"].len() + csv["results_corr.csv"].len();
    let store_bytes = bin["rows.alfic"].len();
    assert!(
        store_bytes * 100 <= csv_bytes * 40,
        "rows.alfic is {store_bytes} bytes, over 40% of the {csv_bytes}-byte CSV pair"
    );
}

/// The generic text kind must reproduce a pinned CSV golden
/// byte-for-byte through a store round trip.
#[test]
fn csv_golden_round_trips_through_generic_store() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("classification")
        .join("results_orig.csv");
    let text = std::fs::read_to_string(&golden).unwrap();
    let out = std::env::temp_dir().join("alfi_it_store_generic.alfic");
    let _ = std::fs::remove_file(&out);
    text_to_store(&text, "results_orig.csv", &out).unwrap();
    let texts = store_to_texts(&out).unwrap();
    let _ = std::fs::remove_file(&out);
    assert_eq!(texts.len(), 1);
    assert_eq!(texts[0].0, "results_orig.csv");
    assert_eq!(texts[0].1, text, "generic csv kind must invert byte-for-byte");
}
