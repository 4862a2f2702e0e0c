//! Probability machinery for uncertain objects.
//!
//! An *uncertain object* (paper, Sec 3) is a point whose position follows a
//! pdf with bounded support (the *uncertainty region*). This crate supplies:
//!
//! * [`math`] — special functions (erf, Φ, regularized incomplete gamma),
//!   adaptive Simpson quadrature and bisection root finding;
//! * [`Region`] — uncertainty-region shapes (balls as in the paper's
//!   location-based-services scenario, boxes for sensor ranges);
//! * [`ObjectPdf`] — the pdf models: Uniform, Constrained-Gaussian
//!   (paper Eq. 16) and a grid [`HistogramPdf`] realising "arbitrary pdfs";
//! * marginal CDFs per dimension (the `o.cdf(x₁)` of Sec 4.1) together with
//!   their inverses, which is exactly what PCR computation needs;
//! * [`appearance`] — the Monte-Carlo estimator of Eq. 3 plus analytic /
//!   quadrature references used for validation and the refinement step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod appearance;
pub mod histogram;
pub mod kernel;
pub mod marginal;
pub mod math;
pub mod model;
pub mod object;
pub mod region;

pub use appearance::{appearance_reference, MonteCarlo, ZeroSampleCount};
pub use histogram::HistogramPdf;
pub use kernel::{PreparedPdf, RefineScratch, CHUNK};
pub use marginal::NumericMarginal;
pub use model::ObjectPdf;
pub use object::UncertainObject;
pub use region::Region;
