use std::collections::BTreeMap;

pub const VERSION: &str = env!("CARGO_PKG_VERSION");

pub fn stable() -> BTreeMap<u32, u32> {
    BTreeMap::new()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn harness_may_hash_and_print() {
        let m = HashMap::<u32, u32>::new();
        println!("{}", m.len());
    }
}
