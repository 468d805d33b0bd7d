//! Class descriptors: the runtime's equivalent of JVM class metadata.
//!
//! Every object carries a class id in its header; the class descriptor says
//! how many reference fields and primitive words the object has (references
//! first, by convention). No framework here allocates JVM metadata or
//! `java.lang.ref.Reference`-like objects, so the paper's exclusion of them
//! from H2 closures (§3.2) has nothing to exclude (DESIGN.md §1).

/// Identifier of a registered class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u16);

/// Built-in class id for reference arrays (`Object[]`).
pub const OBJ_ARRAY_CLASS: ClassId = ClassId(1);

/// Built-in class id for primitive arrays (`byte[]`/`long[]`/... as words).
pub const PRIM_ARRAY_CLASS: ClassId = ClassId(2);

/// Descriptor of one class: its field layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDesc {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Number of reference fields (laid out first).
    pub ref_fields: usize,
    /// Number of primitive words (laid out after the references).
    pub prim_fields: usize,
}

impl ClassDesc {
    /// Instance size in words for a non-array object of this class,
    /// including the two header words.
    pub fn instance_words(&self) -> usize {
        crate::object::HEADER_WORDS + self.ref_fields + self.prim_fields
    }
}

/// Registry of class descriptors, indexed by [`ClassId`].
#[derive(Debug)]
pub(crate) struct ClassRegistry {
    classes: Vec<ClassDesc>,
}

impl ClassRegistry {
    /// Creates a registry pre-populated with the built-in array classes.
    pub fn new() -> Self {
        let stub = |name: &str| ClassDesc { name: name.to_string(), ref_fields: 0, prim_fields: 0 };
        ClassRegistry { classes: vec![stub("<null>"), stub("Object[]"), stub("word[]")] }
    }

    /// Registers a class with `ref_fields` references and `prim_fields`
    /// primitive words. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` classes are registered.
    pub fn register(&mut self, name: &str, ref_fields: usize, prim_fields: usize) -> ClassId {
        let id = self.classes.len();
        assert!(id <= u16::MAX as usize, "class registry full");
        self.classes.push(ClassDesc { name: name.to_string(), ref_fields, prim_fields });
        ClassId(id as u16)
    }

    /// The descriptor for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not registered.
    pub fn get(&self, id: ClassId) -> &ClassDesc {
        &self.classes[id.0 as usize]
    }

    /// Number of registered classes, including built-ins.
    pub fn len(&self) -> usize {
        self.classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_present() {
        let r = ClassRegistry::new();
        assert_eq!(r.get(OBJ_ARRAY_CLASS).name, "Object[]");
        assert_eq!(r.get(PRIM_ARRAY_CLASS).name, "word[]");
    }

    #[test]
    fn user_classes_start_after_builtins() {
        let mut r = ClassRegistry::new();
        assert_eq!(r.len(), 3, "three built-in classes");
        let c = r.register("Vertex", 2, 1);
        assert_eq!(c, ClassId(3));
        assert_eq!(r.get(c).ref_fields, 2);
        assert_eq!(r.get(c).instance_words(), 2 + 2 + 1);
    }
}
