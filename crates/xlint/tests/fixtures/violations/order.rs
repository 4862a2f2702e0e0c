//! Fixture: `partial_cmp` results defaulted into a non-total order.

pub fn same_line(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

pub fn chained_multiline(v: &mut [[f64; 2]], dim: usize) {
    v.sort_by(|a, b| {
        a[dim]
            .partial_cmp(&b[dim])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

pub fn defaulted_by_closure(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or_else(|| std::cmp::Ordering::Less));
}

pub fn total(v: &mut [f64]) {
    // The fix: a total order over every f64, NaN included.
    v.sort_by(|a, b| a.total_cmp(b));
}

pub fn propagated(a: f64, b: f64) -> Option<bool> {
    // Not defaulted: the caller sees the `None`.
    let o = a.partial_cmp(&b)?;
    Some(o.is_lt())
}

pub fn unrelated_default(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    fn in_test(v: &mut [f64]) {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    }
}
