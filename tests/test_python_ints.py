"""What leaves the package as a permutation is made of Python ints, so it
serializes with json and, in S_n witness records, shares one int object per
point."""

import json
import random
import tracemalloc
from fractions import Fraction

from wordmetric.cayley import width_two_shift
from wordmetric.perms import Permutation, hamming_distance
from wordmetric.symmetric import Witness, approx
from wordmetric.words import parse_word


def random_permutation(n, seed):
    images = list(range(n))
    random.Random(seed).shuffle(images)
    return Permutation(images)


def zero_sum_vectors(n, d, rng):
    """d independent vectors e_a - e_b of length n, along a shuffled path."""
    order = rng.sample(range(n), n)
    vectors = []
    for k in range(d):
        vec = [Fraction(0)] * n
        vec[order[k]], vec[order[k + 1]] = Fraction(1), Fraction(-1)
        vectors.append(vec)
    return vectors


def test_images_calls_and_records_are_python_ints():
    sigma = random_permutation(500, 1)
    for w in ("[x,y]", "x^3"):
        wit = approx(parse_word(w), sigma)
        record = wit.to_dict()
        for perm, key in ((wit.g, "g"), (wit.h, "h"), (wit.value, "value"), (wit.target, "target")):
            assert all(type(x) is int for x in perm.images)
            assert all(type(perm(i)) is int for i in range(perm.degree))
            assert all(type(x) is int for x in record[key])
            assert record[key] == list(perm.images)
        json.dumps(record)


def test_width_two_shift_images_serialize():
    rng = random.Random(2)
    for n in (3, 5, 8):
        d1 = (n - 2) // 2
        sigma = width_two_shift(
            zero_sum_vectors(n, d1, rng), zero_sum_vectors(n, n - 1 - d1, rng), n, seed=3
        )
        assert json.loads(json.dumps(sigma.images)) == list(sigma.images)


def test_record_shares_one_int_per_point():
    n = 10**5
    g, h, target = (random_permutation(n, seed) for seed in ("g", "h", "target"))
    # the word x: its value at (g, h) is g
    wit = Witness(
        word=parse_word("x"),
        g=g,
        h=h,
        value=g,
        target=target,
        achieved_distance=hamming_distance(target, g),
        bound_distance=Fraction(1),
    )
    tracemalloc.start()
    try:
        record = wit.to_dict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # shared ints: about 8.0e6 bytes (n ints, the four lists and one gather
    # at a time); a fresh int per entry takes about 16.0e6
    assert peak < 8 * 2**20
    for key in ("h", "value", "target"):
        assert len({id(x) for x in record["g"] + record[key]}) == n
