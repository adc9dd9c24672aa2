// Fixture protocol file for the wire-exhaustiveness rule.

pub enum Color {
    Red,
    #[allow(dead_code)]
    Green,
    Blue,
}

// The codes of a type defined elsewhere: its variants count too.
wire_enum! {
    impl Wire for Shade {
        0 => Light,
        1 => Dark,
    }
}
