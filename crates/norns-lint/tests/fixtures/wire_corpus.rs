// Fixture corpus: exercises Red, Green and Light but never Blue or
// Dark. A mention in a comment (Color::Blue) or string ("Color::Blue")
// must not count.

fn corpus() {
    let _ = (Color::Red, Color::Green, Shade::Light);
    let _ = "Color::Blue";
}
