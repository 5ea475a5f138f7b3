//! `GROUP BY` and the aggregate functions: the one fold the SQL Executor
//! and the Disk Process share.
//!
//! An [`Aggregation`] takes rows one at a time where they lie — a stored
//! record, a reply row, a joined [`Row`](crate::Row) — through
//! [`RowAccessor`], and keeps one running state per aggregate per group, the
//! groups in first-seen order.
//!
//! Pushed to the Disk Process ("aggregation at the source"), each request
//! folds the records it selects and replies with the *partial groups* of
//! exactly those records: one row per group, laid out by
//! [`partial_layout`] — the grouping fields, then each aggregate's state
//! ([`state_width`] fields) — and written by [`Aggregation::each_partial`].
//! The requester [`Aggregation::merge`]s the partial rows in reply order,
//! which keeps each group's first-seen values and, on ties, the first-seen
//! extreme: the answer is the one a sequential fold gives. Only aggregates
//! whose partial states merge exactly are pushed ([`pushable`]): `COUNT`,
//! `MIN`/`MAX` of a field, and `SUM`/`AVG` of an integer field, summed
//! exactly in an `i128` whatever the split. A `DOUBLE` sum is not, because
//! floating-point addition is not associative.

use crate::expr::{EvalError, Expr};
use crate::row::{put_value, CodecError, FieldRef, RowAccessor};
use crate::types::{FieldDef, FieldType, RecordDescriptor};
use crate::value::Value;
use std::cmp::Ordering;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(*) / COUNT(expr).
    Count,
    /// SUM(expr).
    Sum,
    /// AVG(expr).
    Avg,
    /// MIN(expr).
    Min,
    /// MAX(expr).
    Max,
}

/// One aggregate function's running state within one group.
#[derive(Debug, Clone, Default)]
struct Running {
    /// Non-NULL values seen.
    count: u64,
    /// Sum of the integers, exact: its overflow is judged once, on the
    /// result.
    sum_i: i128,
    /// Sum as a double, integers included (`SUM` and `AVG` of doubles).
    sum_f: f64,
    any_float: bool,
    /// `MIN` / `MAX` so far.
    extreme: Option<Value>,
}

/// The order `MIN` and `MAX` want of a new value against the best so far.
fn wanted(func: AggFunc) -> Ordering {
    match func {
        AggFunc::Min => Ordering::Less,
        _ => Ordering::Greater,
    }
}

impl Running {
    fn add(&mut self, func: AggFunc, v: Value) -> Result<(), EvalError> {
        if v.is_null() {
            return Ok(()); // NULLs are ignored by aggregates
        }
        self.count += 1;
        match func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                if let Some(n) = v.as_i64() {
                    self.sum_i += i128::from(n);
                    self.sum_f += n as f64;
                } else if let Some(x) = v.as_f64() {
                    self.any_float = true;
                    self.sum_f += x;
                } else {
                    return Err(EvalError::Type("SUM/AVG requires a numeric argument"));
                }
            }
            AggFunc::Min | AggFunc::Max => {
                // A tie keeps the first seen.
                let better = |best: &Value| v.sql_cmp(best).unwrap_or(Ordering::Equal);
                if self
                    .extreme
                    .as_ref()
                    .is_none_or(|b| better(b) == wanted(func))
                {
                    self.extreme = Some(v);
                }
            }
        }
        Ok(())
    }

    /// [`Running::add`] of the text `text` to a `MIN` or `MAX`: a new
    /// extreme is copied into the old one's string.
    fn add_text(&mut self, func: AggFunc, text: &str) {
        self.count += 1;
        match &mut self.extreme {
            Some(Value::Str(best)) => {
                if text.trim_end_matches(' ').cmp(best.trim_end_matches(' ')) == wanted(func) {
                    best.clear();
                    best.push_str(text);
                }
            }
            // Text does not order against a number (`sql_cmp` finds no
            // order).
            Some(_) => {}
            extreme @ None => *extreme = Some(Value::Str(text.to_owned())),
        }
    }

    /// The aggregate's value; a `SUM` of integers past `LARGEINT` fails as
    /// `LARGEINT` arithmetic does.
    fn result(&mut self, func: AggFunc) -> Result<Value, EvalError> {
        Ok(match func {
            AggFunc::Count => Value::LargeInt(self.count as i64),
            AggFunc::Sum | AggFunc::Avg if self.count == 0 => Value::Null,
            AggFunc::Sum if self.any_float => Value::Double(self.sum_f),
            AggFunc::Sum => {
                Value::LargeInt(i64::try_from(self.sum_i).map_err(|_| EvalError::Overflow)?)
            }
            AggFunc::Avg if self.any_float => Value::Double(self.sum_f / self.count as f64),
            AggFunc::Avg => Value::Double(self.sum_i as f64 / self.count as f64),
            AggFunc::Min | AggFunc::Max => self.extreme.take().unwrap_or(Value::Null),
        })
    }
}

/// Fields of a partial row that hold one `func`'s state: a `COUNT` its
/// count; a `SUM` or `AVG` its count and its exact sum as two `LARGEINT`
/// words, high then low; a `MIN` or `MAX` its extreme, NULL when none.
pub fn state_width(func: AggFunc) -> usize {
    match func {
        AggFunc::Count | AggFunc::Min | AggFunc::Max => 1,
        AggFunc::Sum | AggFunc::Avg => 3,
    }
}

/// Can `func` of field `arg` (`None` = `*`) of records laid out per `desc`
/// be folded at the source and merged exactly?
pub fn pushable(desc: &RecordDescriptor, func: AggFunc, arg: Option<u16>) -> bool {
    let ty = arg.map(|f| desc.fields.get(f as usize).map(|f| f.ty));
    match (func, ty) {
        (_, Some(None)) => false,
        (AggFunc::Count, _) => true,
        (AggFunc::Min | AggFunc::Max, Some(Some(_))) => true,
        (AggFunc::Sum | AggFunc::Avg, Some(Some(ty))) => {
            matches!(
                ty,
                FieldType::SmallInt | FieldType::Int | FieldType::LargeInt
            )
        }
        (_, None) => false,
    }
}

/// The layout of a partial group row of records laid out per `desc`: the
/// fields `group_by`, then each aggregate's state ([`state_width`]), in
/// order. `None` when an aggregate is not [`pushable`] or a field is not
/// in `desc`. The Disk Process writes partial rows and the requester reads
/// them by this one layout.
pub fn partial_layout(
    desc: &RecordDescriptor,
    group_by: &[u16],
    aggs: &[(AggFunc, Option<u16>)],
) -> Option<RecordDescriptor> {
    let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
    for &g in group_by {
        let f = desc.fields.get(g as usize)?;
        fields.push(FieldDef::nullable(f.name.clone(), f.ty));
    }
    let word = |name: &str| FieldDef::new(name, FieldType::LargeInt);
    for &(func, arg) in aggs {
        if !pushable(desc, func, arg) {
            return None;
        }
        match (func, arg) {
            (AggFunc::Count, _) => fields.push(word("COUNT")),
            (AggFunc::Sum | AggFunc::Avg, _) => {
                fields.extend([word("COUNT"), word("SUM_HI"), word("SUM_LO")]);
            }
            (AggFunc::Min | AggFunc::Max, arg) => {
                let f = &desc.fields[arg? as usize];
                fields.push(FieldDef::nullable(f.name.clone(), f.ty));
            }
        }
    }
    Some(RecordDescriptor::new(fields, Vec::new()))
}

/// The longest a partial row laid out per `layout` can be: its fixed part
/// and every `VARCHAR` at its full width.
pub fn partial_row_max(layout: &RecordDescriptor) -> usize {
    let text = layout.fields.iter().map(|f| match f.ty {
        FieldType::Varchar(n) => n as usize,
        _ => 0,
    });
    layout.bitmap_len() + layout.fixed_size() + text.sum::<usize>()
}

/// The groups of a fold, stored flat: each group's values, states and
/// equality key side by side in shared buffers, found by an open-addressed
/// table of the keys' hashes. [`Groups::clear`] keeps the buffers, so a
/// fold that reuses them allocates nothing for a group it has room for.
#[derive(Debug, Default)]
pub struct Groups {
    /// Grouping values, `width` per group, decoded at the group's first row.
    values: Vec<Value>,
    /// Running states, one per aggregate per group.
    states: Vec<Running>,
    /// The groups' equality keys, end to end, and where each ends.
    keys: Vec<u8>,
    key_ends: Vec<usize>,
    hashes: Vec<u64>,
    /// Open-addressed: a group's number plus one, or 0 for a free slot.
    slots: Vec<u32>,
    /// The key of the row at hand, built in one reused buffer.
    key: Vec<u8>,
    /// A partial row being written.
    row: Vec<u8>,
}

impl Groups {
    /// Groups held.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Does it hold no group?
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Forget every group, keeping the buffers.
    pub fn clear(&mut self) {
        self.values.clear();
        self.states.clear();
        self.keys.clear();
        self.key_ends.clear();
        self.hashes.clear();
        self.slots.fill(0);
    }

    /// The group whose key is `self.key`, if any, and else the free slot
    /// where it goes.
    fn find(&self, hash: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let group = match self.slots[at] {
                0 => return Err(at),
                n => n as usize - 1,
            };
            let start = group.checked_sub(1).map_or(0, |g| self.key_ends[g]);
            if self.hashes[group] == hash && self.keys[start..self.key_ends[group]] == self.key {
                return Ok(group);
            }
            at = (at + 1) & mask;
        }
    }

    /// Keep the table at most half full with one more group in it.
    fn reserve_slot(&mut self) {
        if 2 * (self.len() + 1) <= self.slots.len() {
            return;
        }
        self.slots = vec![0; (2 * self.slots.len()).max(16)];
        let mask = self.slots.len() - 1;
        for (group, &hash) in self.hashes.iter().enumerate() {
            let mut at = hash as usize & mask;
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = group as u32 + 1;
        }
    }
}

/// `GROUP BY` and the aggregate functions, fed one row at a time: rows are
/// [`Aggregation::fold`]ed, or the partial group rows of a fold made
/// elsewhere are [`Aggregation::merge`]d.
pub struct Aggregation<'p> {
    /// Grouping fields of a folded row.
    group_by: &'p [u16],
    /// Each aggregate and its argument over a folded row (`None` = `*`).
    aggs: &'p [(AggFunc, Option<Expr>)],
    groups: Groups,
    /// Rows folded, counting one whose evaluation failed.
    folded: u64,
    /// Partial rows merged.
    merged: u64,
    /// The first evaluation error: no row is taken after it.
    error: Option<EvalError>,
}

impl<'p> Aggregation<'p> {
    /// An empty fold of `aggs` by `group_by`.
    pub fn new(group_by: &'p [u16], aggs: &'p [(AggFunc, Option<Expr>)]) -> Self {
        Self::with_groups(group_by, aggs, Groups::default())
    }

    /// [`Aggregation::new`] in the buffers of `groups`, which are cleared.
    pub fn with_groups(
        group_by: &'p [u16],
        aggs: &'p [(AggFunc, Option<Expr>)],
        mut groups: Groups,
    ) -> Self {
        groups.clear();
        Aggregation {
            group_by,
            aggs,
            groups,
            folded: 0,
            merged: 0,
            error: None,
        }
    }

    /// The buffers, for the next fold.
    pub fn into_groups(self) -> Groups {
        self.groups
    }

    /// Groups so far.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// No group yet?
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Rows folded plus partial rows merged.
    pub fn taken(&self) -> u64 {
        self.folded + self.merged
    }

    /// CPU units of what was taken: one per folded row and one per
    /// aggregate per folded row, one per merged partial row.
    pub fn units(&self) -> u64 {
        self.folded * (1 + self.aggs.len() as u64) + self.merged
    }

    /// The group of the row whose grouping fields `fields` of `row` are,
    /// made if it is new, with those fields' values.
    fn group_of(
        &mut self,
        row: &dyn RowAccessor,
        fields: impl Iterator<Item = u16> + Clone,
    ) -> usize {
        let groups = &mut self.groups;
        // No grouping columns: one group, found without a lookup. (A hash
        // map's lookup of the empty key compared two empty `Vec`s, and
        // glibc's `memcmp` of their dangling pointers took a slow path:
        // 151 ns a row against 3.4 ns for a one-byte key, on a 2-core
        // x86-64 VM.)
        if self.group_by.is_empty() {
            if groups.is_empty() {
                groups.hashes.push(0);
                groups.key_ends.push(0);
                groups.states.resize(self.aggs.len(), Running::default());
            }
            return 0;
        }
        groups.key.clear();
        for f in fields.clone() {
            row.eq_key(f, &mut groups.key);
        }
        let hash = hash_key(&groups.key);
        groups.reserve_slot();
        match groups.find(hash) {
            Ok(group) => group,
            Err(slot) => {
                let group = groups.len();
                groups.slots[slot] = group as u32 + 1;
                groups.hashes.push(hash);
                groups.keys.extend_from_slice(&groups.key);
                groups.key_ends.push(groups.keys.len());
                groups.values.extend(fields.map(|f| row.field(f)));
                let states = groups.states.len() + self.aggs.len();
                groups.states.resize(states, Running::default());
                group
            }
        }
    }

    /// The running states of `group`.
    fn states(&mut self, group: usize) -> &mut [Running] {
        let width = self.aggs.len();
        &mut self.groups.states[group * width..(group + 1) * width]
    }

    /// Fold one row into its group. After an evaluation error the rows
    /// that follow are ignored (a scan still drains) and
    /// [`Aggregation::finish`] returns the error.
    pub fn fold(&mut self, row: &dyn RowAccessor) {
        if self.error.is_none() {
            self.folded += 1;
            if let Err(e) = self.accumulate(row) {
                self.error = Some(e);
            }
        }
    }

    fn accumulate(&mut self, row: &dyn RowAccessor) -> Result<(), EvalError> {
        let group_by = self.group_by;
        let group = self.group_of(row, group_by.iter().copied());
        let aggs = self.aggs;
        for ((func, arg), state) in aggs.iter().zip(self.states(group)) {
            let v = match arg {
                None => Value::Int(1), // COUNT(*)
                // What `Expr::eval` makes of a bare field, read directly;
                // the MIN or MAX of text is compared where it lies.
                Some(Expr::Field(f)) => match row.field_ref(*f) {
                    FieldRef::Value(v) => v,
                    FieldRef::Text(text) if matches!(func, AggFunc::Min | AggFunc::Max) => {
                        state.add_text(*func, text);
                        continue;
                    }
                    FieldRef::Text(text) => Value::Str(text.to_owned()),
                },
                Some(e) => e.eval(row)?,
            };
            state.add(*func, v)?;
        }
        Ok(())
    }

    /// Merge one partial row, laid out by [`partial_layout`], into its
    /// group: a new group takes the row's grouping values; counts and sums
    /// add, and an extreme replaces the group's only if it is strictly
    /// better, so that merged in reply order the first seen wins a tie.
    pub fn merge(&mut self, partial: &dyn RowAccessor) {
        if self.error.is_none() {
            self.merged += 1;
            if let Err(e) = self.absorb(partial) {
                self.error = Some(e);
            }
        }
    }

    fn absorb(&mut self, partial: &dyn RowAccessor) -> Result<(), EvalError> {
        let width = self.group_by.len() as u16;
        let group = self.group_of(partial, 0..width);
        let word = |f: u16| {
            let word = partial.field(f).as_i64();
            word.ok_or(EvalError::Type("malformed partial group"))
        };
        let aggs = self.aggs;
        let mut at = width;
        for ((func, _), state) in aggs.iter().zip(self.states(group)) {
            match func {
                AggFunc::Count => state.count += word(at)? as u64,
                AggFunc::Sum | AggFunc::Avg => {
                    state.count += word(at)? as u64;
                    let sum = i128::from(word(at + 1)?) << 64 | i128::from(word(at + 2)? as u64);
                    state.sum_i = state.sum_i.checked_add(sum).ok_or(EvalError::Overflow)?;
                }
                AggFunc::Min | AggFunc::Max => match partial.field_ref(at) {
                    FieldRef::Value(Value::Null) => {}
                    FieldRef::Value(v) => state.add(*func, v)?,
                    FieldRef::Text(text) => state.add_text(*func, text),
                },
            }
            at += state_width(*func) as u16;
        }
        Ok(())
    }

    /// Hand `each` one partial row per group, in first-seen order, laid
    /// out per `layout` ([`partial_layout`] of the fold's grouping fields
    /// and aggregates, which must be bare fields or `*`).
    /// A fold that failed hands over nothing and says why.
    pub fn each_partial(
        &mut self,
        layout: &RecordDescriptor,
        mut each: impl FnMut(&[u8]),
    ) -> Result<(), EvalError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let unfit = |_: CodecError| EvalError::Type("a partial group does not fit its layout");
        let (groups, width) = (&mut self.groups, self.group_by.len());
        let fixed_end = layout.bitmap_len() + layout.fixed_size();
        for group in 0..groups.len() {
            let row = &mut groups.row;
            row.clear();
            row.resize(fixed_end, 0);
            let values = &groups.values[group * width..(group + 1) * width];
            let mut at = 0u16;
            for v in values {
                put_value(layout, at, v, row).map_err(unfit)?;
                at += 1;
            }
            let states = &groups.states[group * self.aggs.len()..][..self.aggs.len()];
            for ((func, _), state) in self.aggs.iter().zip(states) {
                let word = |n: i64| Value::LargeInt(n);
                match func {
                    AggFunc::Count => {
                        put_value(layout, at, &word(state.count as i64), row).map_err(unfit)?
                    }
                    AggFunc::Sum | AggFunc::Avg => {
                        let (hi, lo) = ((state.sum_i >> 64) as i64, state.sum_i as i64);
                        for (i, n) in [state.count as i64, hi, lo].into_iter().enumerate() {
                            put_value(layout, at + i as u16, &word(n), row).map_err(unfit)?;
                        }
                    }
                    AggFunc::Min | AggFunc::Max => {
                        let extreme = state.extreme.as_ref().unwrap_or(&Value::Null);
                        put_value(layout, at, extreme, row).map_err(unfit)?;
                    }
                }
                at += state_width(*func) as u16;
            }
            each(row);
        }
        Ok(())
    }

    /// One row per group, in first-seen order: its grouping values, then
    /// each aggregate's value. A global aggregate (no grouping fields) over
    /// no rows still yields one row.
    pub fn finish(mut self) -> Result<Vec<Vec<Value>>, EvalError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let (width, aggs) = (self.group_by.len(), self.aggs);
        let groups = &mut self.groups;
        if groups.is_empty() && width == 0 {
            groups.hashes.push(0);
            groups.states.resize(aggs.len(), Running::default());
        }
        let mut values = std::mem::take(&mut groups.values).into_iter();
        let mut states = groups.states.chunks_mut(aggs.len().max(1));
        let mut rows = Vec::with_capacity(groups.hashes.len());
        for _ in 0..groups.hashes.len() {
            let mut row: Vec<Value> = values.by_ref().take(width).collect();
            let states = states.next().unwrap_or_default();
            for ((func, _), state) in aggs.iter().zip(states) {
                row.push(state.result(*func)?);
            }
            rows.push(row);
        }
        Ok(rows)
    }
}

/// The hash of a group key: a multiply-rotate over the key's 8-byte words.
/// The keys come from the statement's own data and the groups keep
/// first-seen order, so the hash needs neither a seed nor resistance to
/// chosen keys; SipHash cost more than the rest of a row's fold.
fn hash_key(key: &[u8]) -> u64 {
    let add = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    let mut h = 0;
    let mut rest = key;
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        h = add(h, u64::from_le_bytes(*word));
        rest = tail;
    }
    add(h, rest.iter().fold(0, |word, &b| word << 8 | u64::from(b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{encode_row, RawRecord};
    use crate::Row;

    fn desc() -> RecordDescriptor {
        RecordDescriptor::new(
            vec![
                FieldDef::new("K", FieldType::Int),
                FieldDef::nullable("G", FieldType::Varchar(4)),
                FieldDef::nullable("L", FieldType::LargeInt),
                FieldDef::nullable("D", FieldType::Double),
            ],
            vec![0],
        )
    }

    fn rows() -> Vec<Vec<Value>> {
        let row = |k, g: Option<&str>, l: Option<i64>| {
            vec![
                Value::Int(k),
                g.map_or(Value::Null, |g| Value::Str(g.into())),
                l.map_or(Value::Null, Value::LargeInt),
                Value::Double(k as f64),
            ]
        };
        vec![
            row(1, Some("a "), Some(i64::MAX)),
            row(2, Some("b"), Some(-3)),
            row(3, Some("a"), Some(1)),
            row(4, None, None),
            row(5, Some("b"), Some(i64::MIN + 3)),
            row(6, Some("a"), Some(-8)),
        ]
    }

    /// Folded in one go, or in every split of the rows into partial groups
    /// merged in order, the answer is the same: the first-seen group value
    /// and extreme, and exact integer sums.
    #[test]
    fn merged_partials_equal_one_fold() {
        let d = desc();
        let group_by = [1];
        let pushed = [
            (AggFunc::Count, None),
            (AggFunc::Sum, Some(2)),
            (AggFunc::Avg, Some(2)),
            (AggFunc::Min, Some(1)),
            (AggFunc::Max, Some(3)),
        ];
        let aggs: Vec<_> = pushed
            .iter()
            .map(|&(f, a)| (f, a.map(Expr::Field)))
            .collect();
        let layout = partial_layout(&d, &group_by, &pushed).unwrap();
        let records: Vec<Vec<u8>> = rows().iter().map(|r| encode_row(&d, r).unwrap()).collect();
        let mut whole = Aggregation::new(&group_by, &aggs);
        for r in &records {
            whole.fold(&RawRecord { desc: &d, bytes: r });
        }
        let whole = whole.finish().unwrap();
        assert_eq!(whole[0][0], Value::Str("a ".into()));
        assert_eq!(whole[0][2], Value::LargeInt(i64::MAX - 7));
        assert_eq!(whole[0][4], Value::Str("a ".into()));
        for split in 1..records.len() {
            let (mut merged, partial_group_by) = (Vec::new(), [0u16]);
            let mut groups = Groups::default();
            for chunk in records.chunks(split) {
                let mut part = Aggregation::with_groups(&group_by, &aggs, groups);
                for r in chunk {
                    part.fold(&RawRecord { desc: &d, bytes: r });
                }
                part.each_partial(&layout, |row| merged.push(row.to_vec()))
                    .unwrap();
                groups = part.into_groups();
            }
            let mut requester = Aggregation::new(&partial_group_by, &aggs);
            for row in &merged {
                requester.merge(&RawRecord {
                    desc: &layout,
                    bytes: row,
                });
            }
            assert_eq!(requester.taken(), merged.len() as u64);
            assert_eq!(requester.finish().unwrap(), whole, "split {split}");
        }
    }

    #[test]
    fn integer_sums_overflow_only_on_the_result() {
        let aggs = [(AggFunc::Sum, Some(Expr::Field(0)))];
        let sum = |values: &[i64]| {
            let mut fold = Aggregation::new(&[], &aggs);
            for &n in values {
                fold.fold(&Row(vec![Value::LargeInt(n)]));
            }
            fold.finish().map(|rows| rows[0][0].clone())
        };
        assert_eq!(sum(&[i64::MAX, 1, -5]), Ok(Value::LargeInt(i64::MAX - 4)));
        assert_eq!(sum(&[i64::MAX, 1]), Err(EvalError::Overflow));
        assert_eq!(sum(&[]), Ok(Value::Null));
    }

    #[test]
    fn only_exact_merges_are_pushable() {
        let d = desc();
        assert!(pushable(&d, AggFunc::Count, None));
        assert!(pushable(&d, AggFunc::Sum, Some(2)));
        assert!(pushable(&d, AggFunc::Max, Some(3)));
        assert!(!pushable(&d, AggFunc::Sum, Some(3)), "DOUBLE sums");
        assert!(!pushable(&d, AggFunc::Avg, Some(1)));
        assert!(!pushable(&d, AggFunc::Min, None));
        assert!(!pushable(&d, AggFunc::Count, Some(9)));
        // A group value and a count: 1 + 4 + 8 bytes; a VARCHAR at its
        // full width.
        let layout = partial_layout(&d, &[0], &[(AggFunc::Count, None)]).unwrap();
        assert_eq!(partial_row_max(&layout), 13);
        let layout = partial_layout(&d, &[1], &[(AggFunc::Min, Some(1))]).unwrap();
        assert_eq!(partial_row_max(&layout), 1 + 4 + 4 + 4 + 4);
    }
}
