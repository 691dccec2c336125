"""Optimal ternary cyclic codes C_(u,v), their minimum distance, and the
exact weight enumerators of their duals.

Each public name is imported from the module that defines it, for example
tritcodes.gf3m.make_field or tritcodes.codebuilder.build_code.
"""
