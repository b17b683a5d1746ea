//! The multi-model registry: named models, each bound to the
//! [`BackendSpec`] it serves under.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use mlexray_models::by_name;
use mlexray_nn::{BackendSpec, Graph, Model};

use crate::{Result, ServeError};

/// One registered model: the graph, the backend it executes on, and the
/// name requests address it by. Workers clone the [`Arc`] and build their
/// own private backend instance from the spec — no interpreter state is
/// ever shared across threads.
#[derive(Debug)]
pub struct ServedModel {
    name: String,
    model: Arc<Model>,
    spec: BackendSpec,
}

impl ServedModel {
    /// Binds a model to a backend spec under a serving name. Runs the
    /// static analyzer over the graph and rejects models carrying Deny
    /// diagnostics, then validates that the spec can actually build a
    /// backend for the graph, so worker-side construction cannot fail
    /// later.
    ///
    /// # Errors
    ///
    /// [`ServeError::LintFailed`] (with the full lint report) for models
    /// the analyzer denies; otherwise propagates graph-validation errors
    /// from a trial backend build.
    pub fn new(name: impl Into<String>, model: Model, spec: BackendSpec) -> Result<Self> {
        let name = name.into();
        // Static gate first: it is cheaper than a trial build and its
        // diagnostics say *what* is broken, not just that construction
        // failed.
        let report = mlexray_nn::analysis::analyze(&model.graph);
        if !report.is_clean() {
            return Err(ServeError::LintFailed {
                model: name,
                report: Box::new(report),
            });
        }
        // Trial build: surface graph/spec incompatibilities at registration
        // time, not on the first request.
        spec.build(&model.graph)?;
        Ok(ServedModel {
            name,
            model: Arc::new(model),
            spec,
        })
    }

    /// The serving name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The served model.
    pub fn model(&self) -> &Arc<Model> {
        &self.model
    }

    /// The executable graph.
    pub fn graph(&self) -> &Graph {
        &self.model.graph
    }

    /// The backend this model serves under.
    pub fn spec(&self) -> BackendSpec {
        self.spec
    }
}

/// A thread-safe name → [`ServedModel`] map. Re-registering a name
/// atomically replaces the entry for *future lookups and future services*:
/// a running [`crate::InferenceService`] snapshots the registry at start
/// and keeps serving the entries it saw — swap models by starting a new
/// service over the updated registry and draining the old one (live model
/// hot-swap is future work, see ROADMAP).
#[derive(Debug, Default)]
pub struct ModelRegistry {
    entries: RwLock<BTreeMap<String, Arc<ServedModel>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) an entry, returning the shared handle.
    pub fn register(&self, entry: ServedModel) -> Arc<ServedModel> {
        let entry = Arc::new(entry);
        self.entries
            .write()
            .insert(entry.name().to_string(), entry.clone());
        entry
    }

    /// Builds and registers an arbitrary model under `name`.
    ///
    /// # Errors
    ///
    /// Propagates the trial backend build of [`ServedModel::new`].
    pub fn register_model(
        &self,
        name: impl Into<String>,
        model: Model,
        spec: BackendSpec,
    ) -> Result<Arc<ServedModel>> {
        Ok(self.register(ServedModel::new(name, model, spec)?))
    }

    /// Resolves a zoo family by name ([`mlexray_models::by_name`]), builds
    /// it at the given input resolution / class count / seed, and registers
    /// it under its family name — the CLI-style configuration path.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for names the zoo does not know;
    /// otherwise propagates model construction errors.
    pub fn register_zoo(
        &self,
        family: &str,
        input: usize,
        classes: usize,
        seed: u64,
        spec: BackendSpec,
    ) -> Result<Arc<ServedModel>> {
        let zoo = by_name(family).ok_or_else(|| ServeError::UnknownModel(family.to_string()))?;
        let model = zoo.build(input, classes, seed)?;
        self.register_model(family, model, spec)
    }

    /// Looks up an entry.
    pub fn get(&self, name: &str) -> Option<Arc<ServedModel>> {
        self.entries.read().get(name).cloned()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.read().keys().cloned().collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Snapshot of all entries, sorted by name — what the service spawns
    /// worker pools from.
    pub(crate) fn snapshot(&self) -> Vec<Arc<ServedModel>> {
        self.entries.read().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlexray_nn::{Activation, GraphBuilder, Padding};
    use mlexray_tensor::{Shape, Tensor};

    fn tiny_model(name: &str) -> Model {
        let mut b = GraphBuilder::new(name);
        let x = b.input("x", Shape::nhwc(1, 4, 4, 2));
        let w = b.constant("w", Tensor::filled_f32(Shape::new(vec![2, 1, 1, 2]), 0.5));
        let y = b
            .conv2d("conv", x, w, None, 1, Padding::Same, Activation::Relu)
            .unwrap();
        b.output(y);
        Model::checkpoint(b.finish().unwrap(), name)
    }

    #[test]
    fn register_lookup_and_replace() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        registry
            .register_model("a", tiny_model("a"), BackendSpec::optimized())
            .unwrap();
        registry
            .register_model("b", tiny_model("b"), BackendSpec::reference())
            .unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["a".to_string(), "b".to_string()]);
        let a = registry.get("a").unwrap();
        assert_eq!(a.spec(), BackendSpec::optimized());
        assert!(registry.get("missing").is_none());
        // Replacement swaps the spec without disturbing other entries.
        registry
            .register_model("a", tiny_model("a"), BackendSpec::reference())
            .unwrap();
        assert_eq!(registry.get("a").unwrap().spec(), BackendSpec::reference());
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn registration_rejects_deny_lint_models() {
        use mlexray_nn::analysis::{mutate::GraphMutation, LintCode};

        let mut model = tiny_model("broken");
        model.graph = GraphMutation::ShapeMismatch
            .apply(&model.graph)
            .expect("conv model has a mutable output shape");
        let registry = ModelRegistry::new();
        match registry.register_model("broken", model, BackendSpec::optimized()) {
            Err(ServeError::LintFailed { model, report }) => {
                assert_eq!(model, "broken");
                assert!(!report.is_clean());
                assert!(report.has_code(LintCode::ShapeMismatch));
            }
            other => panic!("expected LintFailed, got {other:?}"),
        }
        assert!(registry.is_empty(), "rejected models must not register");
        // The clean version of the same model registers fine.
        registry
            .register_model("ok", tiny_model("ok"), BackendSpec::optimized())
            .unwrap();
    }

    #[test]
    fn register_zoo_resolves_families_by_name() {
        let registry = ModelRegistry::new();
        let entry = registry
            .register_zoo("mini_mobilenet_v2", 24, 8, 1, BackendSpec::optimized())
            .unwrap();
        assert_eq!(entry.name(), "mini_mobilenet_v2");
        assert_eq!(entry.model().family, "mini_mobilenet_v2");
        match registry.register_zoo("not_a_model", 24, 8, 1, BackendSpec::optimized()) {
            Err(ServeError::UnknownModel(name)) => assert_eq!(name, "not_a_model"),
            other => panic!("expected UnknownModel, got {other:?}"),
        }
    }
}
