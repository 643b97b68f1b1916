//! # hd-serve — sharded micro-batching associative-search service
//!
//! The batched popcount pipeline in `hd_linalg` answers queries at tens
//! of nanoseconds each — **when someone hands it a batch**. Production
//! traffic doesn't arrive as batches: it arrives as millions of
//! independent single-query requests. This crate is the serving layer
//! that closes that gap:
//!
//! * **Micro-batching** ([`Server`]) — concurrent single-query
//!   submissions are coalesced into SIMD-sized [`hd_linalg::QueryBatch`]es
//!   and flushed either when full ([`ServeConfig::max_batch`], executed
//!   inline by the filling submitter — flat combining) or, once the batch
//!   has been open for the latency budget ([`ServeConfig::max_delay`]),
//!   by the first caller waiting on it (group commit). A wire
//!   connection's reader also flushes inline once it has submitted every
//!   frame at hand (see [`net`]). The server runs no thread of its own.
//!   No submission is ever lost: full flush, ingest flush, deadline
//!   flush, or shutdown drain answers it.
//! * **Sharding** ([`ShardedSearcher`]) — a [`hd_linalg::SearchMemory`]'s
//!   class-row space splits into contiguous, block-aligned row shards,
//!   each with its own pre-packed blocked mirror, searched one after the
//!   other on the flushing thread; per-shard winners merge under the
//!   workspace's exact highest-score / lowest-row tie-break.
//! * **Cascade serving** ([`ShardedSearcher::with_cascade`], one shard
//!   or many) — batches are answered through the progressive-precision
//!   cascade of `hd_linalg`: dimension prefixes first, provably-losing
//!   centroids pruned, survivors finished. Winners stay bit-identical to
//!   the exact sweep; shards prune independently and the strict merge
//!   is unchanged.
//! * **Hot model swap** ([`ModelRegistry`]) — the served model lives
//!   behind an `Arc` snapshot; [`Server::publish`] swaps generations
//!   atomically while in-flight flushes finish on the snapshot they
//!   hold, so a batch never mixes generations. This is the hook the
//!   `imc_sim` fault-injection path uses to republish a degraded mapping
//!   (`imc_sim::FaultyAmMapping::inject`).
//! * **Wire front-end** ([`net::WireServer`] / [`net::WireClient`]) — a
//!   std-only TCP / Unix-domain-socket protocol whose QUERY payload *is*
//!   the packed batch layout, so frames land in the pending batch as one
//!   word copy ([`Server::submit_packed`]). Each connection runs one
//!   thread, which reads its frames and writes every reply, answers
//!   per flush and typed error frames for malformed input.
//!
//! The crate depends on `hd_linalg` alone. Any associative memory
//! plugs in through the [`Searchable`] trait, which every
//! [`hd_linalg::LabeledMemory`] implements: raw `hd_linalg::SearchMemory`,
//! `hdc::BinaryAm`, `memhd::MemhdModel` (its quantized AM), the four
//! `hd_baselines` models, and `imc_sim::AmMapping` / `FaultyAmMapping` /
//! `ReplicatedAmMapping` — each implemented in the crate that owns the
//! type. A [`ShardedSearcher`] wraps any of their row stores.
//!
//! # Example
//!
//! ```
//! use hd_linalg::BitVector;
//! use hd_serve::{ServeConfig, Server, ShardedSearcher};
//! use hdc::BinaryAm;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let am = BinaryAm::from_centroids(2, vec![
//!     (0, BitVector::from_bools(&[true, true, false, false])),
//!     (1, BitVector::from_bools(&[false, false, true, true])),
//! ])?;
//! // Shard the AM's rows (2 shards) and serve with a 100 µs budget.
//! let sharded =
//!     ShardedSearcher::new(am.search_memory().clone(), am.class_labels().to_vec(), 2)?;
//! let server = Server::start(Arc::new(sharded), ServeConfig {
//!     max_batch: 64,
//!     max_delay: Duration::from_micros(100),
//!     ..Default::default()
//! })?;
//! let query = BitVector::from_bools(&[true, true, true, false]);
//! let slate = server.submit(query.as_view(), 1)?.wait()?;
//! assert_eq!(slate[0].class, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod net;
mod registry;
mod searchable;
mod server;
mod shard;

pub use error::{Result, ServeError};
pub use registry::{Generation, ModelRegistry};
pub use searchable::{Searchable, Winner};
pub use server::{PendingTopK, Prediction, ServeConfig, Server, ServerStats};
pub use shard::ShardedSearcher;
