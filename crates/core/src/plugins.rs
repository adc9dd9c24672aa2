//! Transfer plugin selection (paper Table II): which plugin serves a
//! task, or why none does, is the admission table both worlds share
//! (`norns_sched::shape`); this module maps a simulated task to the
//! shape that table reads. `sim::plan` turns a plugin into legs.

pub use norns_sched::shape::Plugin as PluginKind;
use norns_sched::shape::{names_root, Kind, Shape};

use crate::resource::ResourceRef;
use crate::task::{Durability, TaskSpec};

/// The shape of a simulated task, as the admission table reads it.
pub fn shape(spec: &TaskSpec) -> Shape {
    let kind = |r: &ResourceRef| match r {
        ResourceRef::Memory { .. } => Kind::Memory,
        ResourceRef::Local { .. } => Kind::Local,
        ResourceRef::Remote { .. } => Kind::Remote,
    };
    Shape {
        op: spec.op,
        input: kind(&spec.input),
        output: spec.output.as_ref().map(kind),
        input_names_root: spec.input.path().is_some_and(names_root),
        durable: spec.durability != Durability::LocalOnly,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use norns_sched::shape::{admit, Refusal};

    fn mem() -> ResourceRef {
        ResourceRef::memory(1 << 20)
    }

    fn local() -> ResourceRef {
        ResourceRef::local("pmdk0", "f")
    }

    fn remote() -> ResourceRef {
        ResourceRef::remote(3, "pmdk0", "f")
    }

    fn resolve(spec: &TaskSpec) -> Result<PluginKind, Refusal> {
        admit(shape(spec))
    }

    #[test]
    fn all_six_table_ii_rows_resolve() {
        let cases = [
            (mem(), local(), PluginKind::MemoryToLocal),
            (mem(), remote(), PluginKind::MemoryToRemote),
            (remote(), mem(), PluginKind::RemoteToMemory),
            (local(), local(), PluginKind::LocalToLocal),
            (local(), remote(), PluginKind::LocalToRemote),
            (remote(), local(), PluginKind::RemoteToLocal),
        ];
        for (input, output, expected) in cases {
            let spec = TaskSpec::copy(input, output);
            assert_eq!(resolve(&spec).unwrap(), expected);
        }
    }

    #[test]
    fn unsupported_combinations_rejected() {
        assert!(resolve(&TaskSpec::copy(mem(), mem())).is_err());
        assert!(resolve(&TaskSpec::copy(remote(), remote())).is_err());
    }

    #[test]
    fn remove_resolves_to_removal() {
        assert_eq!(
            resolve(&TaskSpec::remove(local())).unwrap(),
            PluginKind::Removal
        );
    }

    #[test]
    fn a_dataspace_root_is_its_empty_or_dot_path() {
        for path in ["", ".", "./"] {
            let root = ResourceRef::local("pmdk0", path);
            assert!(shape(&TaskSpec::remove(root)).input_names_root);
        }
        assert!(!shape(&TaskSpec::remove(local())).input_names_root);
        assert!(!shape(&TaskSpec::copy(mem(), local())).input_names_root);
    }
}
