//! The evaluation baselines of §7.2: `Naive` and `Dijkstra`.

pub mod dijkstra;
pub mod naive;

pub use dijkstra::dijkstra_select;
pub use naive::{naive_select, NaiveConfig};
