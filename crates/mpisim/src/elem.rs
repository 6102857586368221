//! Element types that can travel in messages.

mod sealed {
    /// Keeps [`super::Elem`] closed: only this module implements it.
    pub trait Sealed {}
}

/// Message element types: the twelve primitive integer and float types,
/// MPI's basic datatypes here. The set is sealed, so every element is
/// plain-old-data — no padding, no heap, every byte pattern a value — and
/// every fabric moves a payload as its bytes plus the one-byte
/// [`Elem::KIND`]. Receiving with another element type than the sender's
/// is a programming error and panics naming both (the analogue of an MPI
/// datatype mismatch).
///
/// Anything else does not compile:
///
/// ```compile_fail
/// mpisim::World::run(2, |ctx| {
///     let comm = ctx.comm_world();
///     ctx.send(&comm, 1, 0, &[String::new()]);
/// });
/// ```
pub trait Elem: sealed::Sealed + Copy + Send + 'static {
    /// The element type's tag on the wire and in the shm registration
    /// table: one byte, distinct per type.
    const KIND: u8;
}

macro_rules! elem_kinds {
    ($($kind:literal => $t:ty),* $(,)?) => {
        $(
            impl sealed::Sealed for $t {}
            impl Elem for $t {
                const KIND: u8 = $kind;
            }
        )*

        /// The element type behind `kind`: its name and its size in bytes
        /// (`None` for a byte no [`Elem`] carries).
        fn kind_info(kind: u8) -> Option<(&'static str, usize)> {
            match kind {
                $($kind => Some((stringify!($t), std::mem::size_of::<$t>())),)*
                _ => None,
            }
        }
    };
}

elem_kinds! {
    0 => u8, 1 => u16, 2 => u32, 3 => u64, 4 => usize,
    5 => i8, 6 => i16, 7 => i32, 8 => i64, 9 => isize,
    10 => f32, 11 => f64,
}

/// The name of the element type behind `kind`, for datatype-mismatch
/// diagnostics.
pub(crate) fn kind_name(kind: u8) -> &'static str {
    kind_info(kind).map_or("an unknown element kind", |(name, _)| name)
}

/// Size in bytes of one element of `kind`.
pub(crate) fn kind_bytes(kind: u8) -> usize {
    kind_info(kind).map_or_else(|| panic!("element kind {kind} is no Elem"), |(_, n)| n)
}

/// Size in bytes of one element, used for cost-model charging. Payload cost
/// is `len * elem_bytes::<T>()`.
pub fn elem_bytes<T: Elem>() -> usize {
    std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_sizes() {
        assert_eq!(elem_bytes::<f64>(), 8);
        assert_eq!(elem_bytes::<u32>(), 4);
        assert_eq!(elem_bytes::<u8>(), 1);
    }

    #[test]
    fn kinds_name_and_size_their_types() {
        assert_eq!((kind_name(f64::KIND), kind_bytes(f64::KIND)), ("f64", 8));
        assert_eq!((kind_name(u16::KIND), kind_bytes(u16::KIND)), ("u16", 2));
        assert_eq!(
            (kind_name(isize::KIND), kind_bytes(isize::KIND)),
            ("isize", std::mem::size_of::<isize>())
        );
        assert_eq!(kind_name(200), "an unknown element kind");
        let mut kinds = [
            u8::KIND,
            u16::KIND,
            u32::KIND,
            u64::KIND,
            usize::KIND,
            i8::KIND,
            i16::KIND,
            i32::KIND,
            i64::KIND,
            isize::KIND,
            f32::KIND,
            f64::KIND,
        ];
        kinds.sort_unstable();
        kinds
            .windows(2)
            .for_each(|w| assert_ne!(w[0], w[1], "kinds are distinct"));
    }
}
