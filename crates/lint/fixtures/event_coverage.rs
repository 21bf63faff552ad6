//! Fixture: an event table whose variant no surface references — planted
//! as `crates/mgps-runtime/src/events.rs` it holes all four coverage
//! columns and trips `event-coverage` and nothing else.
macro_rules! event_table {
    ($callback:path) => {
        $callback! {
            pub enum EventKind {
                /// Declared, never recorded.
                Orphan = "orphan" @ 0 {
                    spe: usize,
                    attempt: u64 = 0,
                },
            }
        }
    };
}
