//! SRAM-based in-memory-computing (IMC) array simulator.
//!
//! Models the hardware side of the MEMHD paper: binary matrices (encoding
//! module and associative memory) are **mapped onto fixed-size IMC arrays**
//! (default 128×128), and inference is executed tile by tile, counting
//! the three metrics of Table II —
//!
//! * **computation cycles** — tile-MVM activations needed per inference
//!   when the design is serialized onto a single physical array;
//! * **array usage** — number of arrays required to hold the whole
//!   structure;
//! * **AM utilization** — fraction of mapped column capacity actually
//!   holding class vectors;
//!
//! plus the energy model behind Fig. 7 ([`EnergyModel`]).
//!
//! The simulation is **functional**: [`AmMapping::search`] computes real
//! popcount MVMs over the programmed tiles, so mapped inference is
//! bit-exact against the software associative search — a property the test
//! suite checks — while also reporting cycle/energy telemetry.
//!
//! Three mapping strategies are modeled (paper Fig. 1):
//!
//! * [`MappingStrategy::Basic`] — class vectors as columns of a `D × k`
//!   logical matrix; high array usage, tiny column utilization.
//! * [`MappingStrategy::Partitioned`] — hypervectors split into `P`
//!   segments mapped across unused columns (the method of Karunaratne et
//!   al.); fewer arrays, same cycle count (each array is re-driven once per
//!   partition with only that partition's columns active).
//! * MEMHD's fully-utilized mapping is simply `Basic` applied to its
//!   `D × C` multi-centroid AM, which fits the array exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Implements [`hd_linalg::LabeledMemory`] for a mapping wrapper by
/// delegating to the [`AmMapping`] its searches read.
macro_rules! labeled_via_mapping {
    ($($ty:ty => $mapping:ident),* $(,)?) => {$(
        impl hd_linalg::LabeledMemory for $ty {
            fn dim(&self) -> usize {
                self.$mapping().dim()
            }

            fn rows(&self) -> usize {
                self.$mapping().num_vectors()
            }

            fn class_of(&self, row: usize) -> usize {
                hd_linalg::LabeledMemory::class_of(self.$mapping(), row)
            }

            fn topk(
                &self,
                batch: &hd_linalg::QueryBatch,
                k: usize,
            ) -> hd_linalg::Result<hd_linalg::TopK> {
                hd_linalg::LabeledMemory::topk(self.$mapping(), batch, k)
            }
        }
    )*};
}

mod adc;
mod energy;
mod error;
mod faults;
mod mapping;
mod replicate;
mod scrub;
mod spec;
mod system;

pub use adc::AdcModel;
pub use energy::EnergyModel;
pub use error::{ImcError, Result};
pub use faults::{FaultModel, FaultyAmMapping};
pub use mapping::{
    AmMapping, BatchInferenceStats, CascadeBatchStats, InferenceStats, MappingStats,
    MappingStrategy, TopKBatchStats,
};
pub use replicate::ReplicatedAmMapping;
pub use scrub::{ScrubConfig, ScrubReport, Scrubber};
pub use spec::{tile_grid, ArraySpec, TileGrid};
pub use system::{batch_system_report, system_report, BatchSystemReport, SystemReport};

labeled_via_mapping!(FaultyAmMapping => as_mapping, ReplicatedAmMapping => majority_mapping);
